//! Runtime-level active messages.
//!
//! The CAF runtime needs its own AM layer for events, function shipping,
//! remote-completion puts, and (on the GASNet substrate) hand-rolled
//! collectives. On the MPI substrate these messages travel as `MPI_Send`s
//! on a private communicator — the paper's §3.2 design, a "near-exact
//! replica of the AM interface in the GASNet core API" built from two-sided
//! MPI. On the GASNet substrate they are genuine GASNet AMs.
//!
//! The wire encoding is a tiny hand-rolled binary format (kind byte +
//! little-endian fields + raw payload); both substrates move opaque bytes.
//! A message is framed once by its sender — on the stack for the
//! fixed-size kinds ([`notify_frame`], [`ship_frame`]), around its payload
//! for the rest — and [`RtMsg::decode`] reads it at the receiver without
//! copying: a payload is a slice of the received frame.

/// A received runtime message, borrowing its payload from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtMsg<'a> {
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
        data: &'a [u8],
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
        data: &'a [u8],
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
        data: &'a [u8],
    },
}

const K_EVENT: u8 = 1;
const K_SHIP: u8 = 2;
const K_PUT_EV: u8 = 3;
const K_COLL: u8 = 4;
const K_AGG: u8 = 5;

/// Fill `head` with `kind` followed by `fields`, little-endian.
fn write_header(head: &mut [u8], kind: u8, fields: &[u64]) {
    assert_eq!(head.len(), 1 + 8 * fields.len(), "runtime message header size");
    head[0] = kind;
    for (at, v) in head[1..].chunks_exact_mut(8).zip(fields) {
        at.copy_from_slice(&v.to_le_bytes());
    }
}

/// The frame of `RtMsg::EventNotify { event_id }`, on the stack.
pub(crate) fn notify_frame(event_id: u64) -> [u8; 1 + 8] {
    let mut frame = [0; 1 + 8];
    write_header(&mut frame, K_EVENT, &[event_id]);
    frame
}

/// The frame of `RtMsg::Ship { slot, finish_id }`, on the stack.
pub(crate) fn ship_frame(slot: u64, finish_id: u64) -> [u8; 1 + 2 * 8] {
    let mut frame = [0; 1 + 2 * 8];
    write_header(&mut frame, K_SHIP, &[slot, finish_id]);
    frame
}

/// Encoded bytes in front of an [`RtMsg::PutWithEvent`]'s data.
const PUT_EV_HEADER: usize = 1 + 3 * 8;

/// The frame of `RtMsg::PutWithEvent { region_id, offset, event_id, data }`:
/// one allocation, into which `data` is copied once.
pub(crate) fn put_with_event_frame(
    region_id: u64,
    offset: u64,
    event_id: u64,
    data: &[u8],
) -> Vec<u8> {
    let mut head = [0; PUT_EV_HEADER];
    write_header(&mut head, K_PUT_EV, &[region_id, offset, event_id]);
    [&head[..], data].concat()
}

/// Encoded bytes in front of an [`RtMsg::AggBatch`]'s batch: kind, token,
/// finish id. Aggregation buckets reserve this much headroom so a drained
/// bucket goes on the wire as is (see [`write_agg_batch_header`]).
pub(crate) const AGG_BATCH_HEADER: usize = 1 + 8 + 8;

/// Fill `head` (exactly [`AGG_BATCH_HEADER`] bytes, directly in front of
/// the batch) so that `head ++ batch` is the frame of
/// `RtMsg::AggBatch { token, finish_id, data: batch }`.
pub(crate) fn write_agg_batch_header(head: &mut [u8], token: u64, finish_id: u64) {
    write_header(head, K_AGG, &[token, finish_id]);
}

/// Encoded bytes in front of an [`RtMsg::CollPayload`]'s fragment: kind,
/// team id, sequence number, phase, source index, chunk, chunk count.
pub(crate) const COLL_HEADER: usize = 1 + 8 + 8 + 4 * 4;

/// Fill `head` (exactly [`COLL_HEADER`] bytes, directly in front of the
/// fragment) so that `head ++ data` is the frame of
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
    let (ids, words) = head.split_at_mut(1 + 2 * 8);
    write_header(ids, K_COLL, &[team_id, seq]);
    for (at, v) in words.chunks_exact_mut(4).zip([phase, src_idx, chunk, nchunks]) {
        at.copy_from_slice(&v.to_le_bytes());
    }
}

/// The next `N` bytes of `rest`, which moves past them.
fn take<const N: usize>(rest: &mut &[u8]) -> [u8; N] {
    let (field, tail) = rest
        .split_first_chunk()
        .expect("truncated runtime message");
    *rest = tail;
    *field
}

fn u64_le(rest: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(rest))
}

fn u32_le(rest: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take(rest))
}

impl<'a> RtMsg<'a> {
    /// Read a received frame in place: a payload is the frame's tail.
    ///
    /// # Panics
    ///
    /// Panics on a malformed message — runtime traffic is internal, so
    /// corruption is a bug, not an input condition.
    pub fn decode(frame: &'a [u8]) -> RtMsg<'a> {
        let (&kind, mut rest) = frame.split_first().expect("empty runtime message");
        let r = &mut rest;
        match kind {
            K_EVENT => RtMsg::EventNotify { event_id: u64_le(r) },
            K_SHIP => RtMsg::Ship {
                slot: u64_le(r),
                finish_id: u64_le(r),
            },
            K_PUT_EV => RtMsg::PutWithEvent {
                region_id: u64_le(r),
                offset: u64_le(r),
                event_id: u64_le(r),
                data: rest,
            },
            K_AGG => RtMsg::AggBatch {
                token: u64_le(r),
                finish_id: u64_le(r),
                data: rest,
            },
            K_COLL => RtMsg::CollPayload {
                team_id: u64_le(r),
                seq: u64_le(r),
                phase: u32_le(r),
                src_idx: u32_le(r),
                chunk: u32_le(r),
                nchunks: u32_le(r),
                data: rest,
            },
            k => panic!("unknown runtime message kind {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m`'s frame, built as its sender builds it: on the stack, around
    /// its payload, or with the header written in place in front of it.
    fn frame(m: &RtMsg) -> Vec<u8> {
        match *m {
            RtMsg::EventNotify { event_id } => notify_frame(event_id).to_vec(),
            RtMsg::Ship { slot, finish_id } => ship_frame(slot, finish_id).to_vec(),
            RtMsg::PutWithEvent {
                region_id,
                offset,
                event_id,
                data,
            } => put_with_event_frame(region_id, offset, event_id, data),
            RtMsg::AggBatch {
                token,
                finish_id,
                data,
            } => {
                let mut frame = [&[0; AGG_BATCH_HEADER][..], data].concat();
                write_agg_batch_header(&mut frame[..AGG_BATCH_HEADER], token, finish_id);
                frame
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
                let mut frame = [&[0; COLL_HEADER][..], data].concat();
                let head = &mut frame[..COLL_HEADER];
                write_coll_header(head, team_id, seq, phase, src_idx, chunk, nchunks);
                frame
            }
        }
    }

    fn roundtrip(m: RtMsg) {
        assert_eq!(RtMsg::decode(&frame(&m)), m);
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
            data: &[1, 2, 3, 4, 5],
        });
        roundtrip(RtMsg::AggBatch {
            token: 0xA66,
            finish_id: 12,
            data: &[9, 8, 7],
        });
        roundtrip(RtMsg::CollPayload {
            team_id: 9,
            seq: 3,
            phase: 2,
            src_idx: 5,
            chunk: 1,
            nchunks: 4,
            data: &[0xff; 100],
        });
    }

    #[test]
    fn agg_header_in_place_matches_the_message_encoding() {
        let batch = [9u8, 8, 7, 6, 5];
        let mut frame = vec![0u8; AGG_BATCH_HEADER];
        frame.extend_from_slice(&batch);
        write_agg_batch_header(&mut frame[..AGG_BATCH_HEADER], 0xA66, 12);
        assert_eq!(&frame[..9], &[K_AGG, 0x66, 0x0A, 0, 0, 0, 0, 0, 0]);
        let msg = RtMsg::AggBatch {
            token: 0xA66,
            finish_id: 12,
            data: &batch,
        };
        assert_eq!(RtMsg::decode(&frame), msg);
    }

    #[test]
    fn coll_fragment_in_place_matches_the_message_encoding() {
        let chunk = [1u8, 2, 3, 4];
        let mut frame = vec![0u8; COLL_HEADER];
        frame.extend_from_slice(&chunk);
        write_coll_header(&mut frame[..COLL_HEADER], 9, 3, 2, 5, 1, 4);
        assert_eq!(&frame[17..COLL_HEADER], &[2, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0]);
        let msg = RtMsg::CollPayload {
            team_id: 9,
            seq: 3,
            phase: 2,
            src_idx: 5,
            chunk: 1,
            nchunks: 4,
            data: &chunk,
        };
        assert_eq!(RtMsg::decode(&frame), msg);
    }

    #[test]
    fn decoded_payloads_point_into_the_frame() {
        let data = [1u8, 2, 3];
        for (m, head) in [
            (
                RtMsg::PutWithEvent { region_id: 1, offset: 8, event_id: 3, data: &data },
                PUT_EV_HEADER,
            ),
            (RtMsg::AggBatch { token: 2, finish_id: 0, data: &data }, AGG_BATCH_HEADER),
            (
                RtMsg::CollPayload {
                    team_id: 0,
                    seq: 1,
                    phase: 0,
                    src_idx: 1,
                    chunk: 0,
                    nchunks: 1,
                    data: &data,
                },
                COLL_HEADER,
            ),
        ] {
            let frame = frame(&m);
            let (RtMsg::PutWithEvent { data: got, .. }
            | RtMsg::AggBatch { data: got, .. }
            | RtMsg::CollPayload { data: got, .. }) = RtMsg::decode(&frame)
            else {
                panic!("{m:?} decoded as a kind without payload")
            };
            assert_eq!(got.as_ptr(), frame[head..].as_ptr(), "{m:?}: the payload was copied");
            assert_eq!(got, data);
        }
    }

    #[test]
    fn empty_payloads_roundtrip() {
        roundtrip(RtMsg::PutWithEvent {
            region_id: 0,
            offset: 0,
            event_id: 0,
            data: &[],
        });
        roundtrip(RtMsg::CollPayload {
            team_id: 0,
            seq: 0,
            phase: 0,
            src_idx: 0,
            chunk: 0,
            nchunks: 1,
            data: &[],
        });
    }

    #[test]
    #[should_panic(expected = "unknown runtime message kind")]
    fn decode_rejects_garbage() {
        RtMsg::decode(&[200, 0, 0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn event_roundtrips(id in any::<u64>()) {
                let m = RtMsg::EventNotify { event_id: id };
                prop_assert_eq!(RtMsg::decode(&frame(&m)), m);
            }

            #[test]
            fn ship_roundtrips(slot in any::<u64>(), fid in any::<u64>()) {
                let m = RtMsg::Ship { slot, finish_id: fid };
                prop_assert_eq!(RtMsg::decode(&frame(&m)), m);
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
                    data: &data,
                };
                prop_assert_eq!(RtMsg::decode(&frame(&m)), m);
            }

            #[test]
            fn agg_batch_roundtrips(
                token in any::<u64>(),
                fid in any::<u64>(),
                data in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                let m = RtMsg::AggBatch { token, finish_id: fid, data: &data };
                prop_assert_eq!(RtMsg::decode(&frame(&m)), m);
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
                    data: &data,
                };
                prop_assert_eq!(RtMsg::decode(&frame(&m)), m);
            }
        }
    }
}
