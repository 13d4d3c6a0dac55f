//! The wire format of the fabric's message plane.

use bytes::Bytes;

/// One message travelling between two endpoints.
///
/// The fabric does not interpret packets beyond routing: `kind`, `tag`, and
/// the header words `h` belong to the substrate protocol (two-sided matching
/// in `caf-mpisim`, AM dispatch in `caf-gasnetsim`). `payload` is reference-
/// counted, so forwarding and buffering never copy the data.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source rank.
    pub src: usize,
    /// Protocol discriminator owned by the substrate.
    pub kind: u16,
    /// Substrate-defined tag (message tag, handler index, ...).
    pub tag: i64,
    /// Four scratch header words (communicator ids, offsets, sequence
    /// numbers, reply tokens — whatever the protocol needs).
    pub h: [u64; 4],
    /// Opaque data payload.
    pub payload: Bytes,
}

impl Packet {
    /// A header-only packet (no payload).
    pub fn control(src: usize, kind: u16, tag: i64, h: [u64; 4]) -> Self {
        Packet {
            src,
            kind,
            tag,
            h,
            payload: Bytes::new(),
        }
    }

    /// A packet carrying `payload`.
    pub fn with_payload(src: usize, kind: u16, tag: i64, h: [u64; 4], payload: Bytes) -> Self {
        Packet {
            src,
            kind,
            tag,
            h,
            payload,
        }
    }

    /// Total size this packet accounts for (header + payload), used by the
    /// delay model to charge per-byte costs.
    pub fn wire_size(&self) -> usize {
        std::mem::size_of::<usize>() + 2 + 8 + 32 + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_packets_have_no_payload() {
        let p = Packet::control(3, 7, -1, [1, 2, 3, 4]);
        assert_eq!(p.src, 3);
        assert_eq!(p.kind, 7);
        assert_eq!(p.tag, -1);
        assert!(p.payload.is_empty());
    }

    #[test]
    fn wire_size_counts_payload() {
        let small = Packet::control(0, 0, 0, [0; 4]);
        let big = Packet::with_payload(0, 0, 0, [0; 4], Bytes::from(vec![0u8; 100]));
        assert_eq!(big.wire_size() - small.wire_size(), 100);
    }

    #[test]
    fn a_packet_is_88_bytes() {
        // Every mailbox push and pop moves one: a `Bytes` is its 24-byte
        // storage plus a `u32` range, the header 8 + 2 + 8 + 32 bytes.
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
        assert_eq!(std::mem::size_of::<Packet>(), 88);
    }

    #[test]
    fn clone_shares_payload_storage() {
        let payload = Bytes::from(vec![1u8, 2, 3]);
        let p = Packet::with_payload(0, 0, 0, [0; 4], payload.clone());
        let q = p.clone();
        assert_eq!(q.payload.as_ptr(), p.payload.as_ptr());
    }
}
