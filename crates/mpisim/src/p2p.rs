//! Two-sided messaging: send/recv with `(source, tag, communicator)`
//! matching, wildcards, and a non-blocking matched receive.

use bytes::Bytes;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, vec_from_bytes};
use caf_fabric::{Packet, Pod, Result, Watch};

use crate::Comm;
use crate::universe::Mpi;

/// Packet kind for user-level point-to-point traffic.
pub(crate) const KIND_P2P: u16 = 1;
/// Packet kind for internal collective traffic.
pub(crate) const KIND_COLL: u16 = 2;

/// Source selector for a receive (`MPI_ANY_SOURCE` or a specific rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match a message from any source (`MPI_ANY_SOURCE`).
    Any,
    /// Match only messages from this communicator rank.
    Rank(usize),
}

/// Tag selector for a receive (`MPI_ANY_TAG` or a specific tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match only this tag.
    Is(i64),
}

/// Completion information of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator rank of the sender.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: i64,
    /// Payload size in bytes.
    pub bytes: usize,
}

fn unpack<T: Pod>(comm: &Comm, pkt: Packet) -> (Vec<T>, Status) {
    let status = Status {
        source: pkt.h[1] as usize,
        tag: pkt.tag,
        bytes: pkt.payload.len(),
    };
    debug_assert_eq!(pkt.h[0], comm.id());
    (vec_from_bytes::<T>(&pkt.payload), status)
}

impl Mpi {
    fn p2p_pred<'a>(
        &self,
        comm: &'a Comm,
        src: Src,
        tag: Tag,
    ) -> impl Fn(&Packet) -> bool + 'a {
        let comm_id = comm.id();
        move |p: &Packet| {
            p.kind == KIND_P2P
                && p.h[0] == comm_id
                && match src {
                    Src::Any => true,
                    Src::Rank(r) => p.h[1] as usize == r,
                }
                && match tag {
                    Tag::Any => true,
                    Tag::Is(t) => p.tag == t,
                }
        }
    }

    /// Blocking standard-mode send (eager: completes locally at return).
    pub fn send<T: Pod>(&self, comm: &Comm, dest: usize, tag: i64, buf: &[T]) -> Result<()> {
        let bytes = as_bytes(buf);
        if caf_trace::enabled() {
            caf_trace::instant(
                caf_trace::Op::MpiSend,
                Some(comm.global_rank(dest)),
                bytes.len() as u64,
                None,
            );
        }
        self.inject(KIND_P2P, comm, dest, tag, bytes)
    }

    /// Charge and inject one eager message of `kind` (user p2p or
    /// collective: same transport, disjoint matching spaces).
    #[inline]
    pub(crate) fn inject(
        &self,
        kind: u16,
        comm: &Comm,
        dest: usize,
        tag: i64,
        bytes: &[u8],
    ) -> Result<()> {
        self.delays.charge(DelayOp::P2pInject, bytes.len());
        self.post(kind, comm, dest, tag, Bytes::copy_from_slice(bytes))
    }

    /// Inject `payload` as it is, uncharged: the caller charges it, or it
    /// stands for no message of the modeled protocol.
    #[inline]
    pub(crate) fn post(
        &self,
        kind: u16,
        comm: &Comm,
        dest: usize,
        tag: i64,
        payload: Bytes,
    ) -> Result<()> {
        let h = [comm.id(), comm.rank() as u64, 0, 0];
        let pkt = Packet::with_payload(self.ep.rank(), kind, tag, h, payload);
        self.ep.send(comm.global_rank(dest), pkt)
    }

    /// Blocking receive returning a freshly allocated buffer.
    pub fn recv<T: Pod>(&self, comm: &Comm, src: Src, tag: Tag) -> Result<(Vec<T>, Status)> {
        let gsrc = match src {
            Src::Any => None,
            Src::Rank(r) => Some(comm.global_rank(r)),
        };
        // Under the model, name the sender this receive waits on so a
        // deadlock report shows the wait-for edge.
        let _hint = gsrc.map(caf_fabric::sched::wait_hint);
        let mut span = caf_trace::span_t(caf_trace::Op::MpiRecv, gsrc, 0, None);
        // Watch the whole communicator, not just `src`: a wildcard recv
        // depends on every member, and even a named-source recv can hang
        // transitively if a third member's failure stalls the sender.
        let pred = self.p2p_pred(comm, src, tag);
        let pkt = self.ep.match_blocking(Watch::Ranks(comm.members()), pred, Some)?;
        span.set_bytes(pkt.payload.len() as u64);
        self.delays.charge(DelayOp::P2pReceive, pkt.payload.len());
        Ok(unpack::<T>(comm, pkt))
    }

    /// Non-blocking matched receive: the first arrived message matching
    /// `(src, tag)`, or `None` — MPI-3's `MPI_Improbe` + `MPI_Mrecv`
    /// fused, the twin of [`Mpi::recv`] that never blocks. A match is
    /// charged as a blocking receive's is.
    pub fn try_recv<T: Pod>(&self, comm: &Comm, src: Src, tag: Tag) -> Option<(Vec<T>, Status)> {
        let pkt = self.ep.try_match(self.p2p_pred(comm, src, tag), Some)?;
        self.delays.charge(DelayOp::P2pReceive, pkt.payload.len());
        Some(unpack::<T>(comm, pkt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn send_recv_typed() {
        Universe::run(2, |mpi| {
            let w = mpi.world();
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 5, &[1.5f64, 2.5]).unwrap();
            } else {
                let (data, st) = mpi.recv::<f64>(&w, Src::Rank(0), Tag::Is(5)).unwrap();
                assert_eq!(data, vec![1.5, 2.5]);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 5);
                assert_eq!(st.bytes, 16);
            }
        });
    }

    #[test]
    fn tag_matching_reorders_across_tags() {
        Universe::run(2, |mpi| {
            let w = mpi.world();
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 1, &[10u64]).unwrap();
                mpi.send(&w, 1, 2, &[20u64]).unwrap();
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let (b, _) = mpi.recv::<u64>(&w, Src::Rank(0), Tag::Is(2)).unwrap();
                let (a, _) = mpi.recv::<u64>(&w, Src::Rank(0), Tag::Is(1)).unwrap();
                assert_eq!((a[0], b[0]), (10, 20));
            }
        });
    }

    #[test]
    fn any_source_matches_first_arrival() {
        Universe::run(3, |mpi| {
            let w = mpi.world();
            if mpi.rank() > 0 {
                mpi.send(&w, 0, 7, &[mpi.rank() as u64]).unwrap();
            } else {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (d, st) = mpi.recv::<u64>(&w, Src::Any, Tag::Is(7)).unwrap();
                    assert_eq!(d[0] as usize, st.source);
                    seen.push(st.source);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2]);
            }
        });
    }

    #[test]
    fn same_tag_same_source_is_fifo() {
        Universe::run(2, |mpi| {
            let w = mpi.world();
            if mpi.rank() == 0 {
                for i in 0..50u64 {
                    mpi.send(&w, 1, 3, &[i]).unwrap();
                }
            } else {
                for i in 0..50u64 {
                    let (d, _) = mpi.recv::<u64>(&w, Src::Rank(0), Tag::Is(3)).unwrap();
                    assert_eq!(d[0], i);
                }
            }
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "raw spin")]
    fn try_recv_misses_then_matches() {
        Universe::run(2, |mpi| {
            let w = mpi.world();
            if mpi.rank() == 1 {
                // Nothing is sent before the barrier.
                assert!(mpi.try_recv::<u32>(&w, Src::Rank(0), Tag::Is(9)).is_none());
            }
            mpi.barrier(&w).unwrap();
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 9, &[42u32]).unwrap();
            } else {
                let (d, st) = loop {
                    if let Some(got) = mpi.try_recv::<u32>(&w, Src::Rank(0), Tag::Is(9)) {
                        break got;
                    }
                    std::hint::spin_loop();
                };
                assert_eq!(d, vec![42]);
                assert_eq!((st.source, st.tag, st.bytes), (0, 9, 4));
            }
        });
    }
}
