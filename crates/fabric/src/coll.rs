//! The collectives every layer of this workspace shares: dissemination
//! barrier, binomial broadcast, binomial reduce, Bruck allgather and the
//! linear alltoall, each written once over a [`Rounds`] transport.
//!
//! Three transports exist: `caf-mpisim`'s `(Mpi, Comm, seq)` over
//! collective packets, `caf-gasnetsim`'s barrier packets (its library
//! barrier and its attach fence), and the CAF runtime's team collectives
//! hand-rolled from chunked AMs. Trace spans, cost charges and statistics
//! stay with the transports and their callers; this module owns the round
//! structure and the entry screen.
//!
//! Everything is `#[inline]`: the functions are instantiated in the
//! substrate crates, without LTO.

use crate::pod::{as_bytes, as_bytes_mut, cast_or_copy, vec_from_bytes, zeroed_vec};
use crate::{FabricError, Pod, Result};

/// One collective's messages among the `n` members of a team: a message
/// is addressed by team rank and algorithm round, and rounds of different
/// collectives never match each other (the transport carries a sequence
/// number, or relies on per-pair FIFO order).
pub trait Rounds {
    /// A received payload.
    type Buf: AsRef<[u8]>;

    /// Team size.
    fn n(&self) -> usize;
    /// The caller's team rank.
    fn me(&self) -> usize;
    /// The members the failure registry marks dead (global ranks).
    fn failed(&self) -> Vec<usize>;
    /// Send `bytes` to team rank `to`. Never blocks.
    fn send(&self, to: usize, round: u32, bytes: &[u8]) -> Result<()>;
    /// Block for the message team rank `from` sent in `round`, watching
    /// the whole team: the sender may itself be stalled on a dead member.
    fn recv(&self, from: usize, round: u32) -> Result<Self::Buf>;

    /// [`Rounds::send`] for a typed buffer.
    #[inline]
    fn send_pod<T: Pod>(&self, to: usize, round: u32, buf: &[T]) -> Result<()> {
        self.send(to, round, as_bytes(buf))
    }

    /// [`Rounds::recv`] into a typed vector, for a result that is a new
    /// vector anyway (a broadcast) or is combined element by element (a
    /// reduction).
    #[inline]
    fn recv_pod<T: Pod>(&self, from: usize, round: u32) -> Result<Vec<T>> {
        Ok(vec_from_bytes(self.recv(from, round)?.as_ref()))
    }

    /// [`Rounds::recv`] into the caller's `buf`: one copy, from the
    /// received payload straight to its destination.
    ///
    /// # Panics
    ///
    /// Panics unless the message is exactly `buf`'s size, which would be a
    /// protocol bug: both sides of a round know its length.
    #[inline]
    fn recv_into<T: Pod>(&self, from: usize, round: u32, buf: &mut [T]) -> Result<()> {
        let msg = self.recv(from, round)?;
        let (msg, buf) = (msg.as_ref(), as_bytes_mut(buf));
        let (got, room) = (msg.len(), buf.len());
        assert_eq!(got, room, "received {got} bytes into a {room}-byte buffer");
        buf.copy_from_slice(msg);
        Ok(())
    }
}

/// The entry screen of every collective: a team with a dead member cannot
/// complete one, so report the failed set *before round 0 is sent*. A
/// fail-fast loop over a broken team therefore injects nothing. (With
/// detection off the registry is never marked and this never fires.)
#[inline]
pub fn enter(t: &impl Rounds) -> Result<()> {
    let failed = t.failed();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(FabricError::ImageFailed { failed })
    }
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds, round k signalling `me+2ᵏ` and
/// awaiting `me−2ᵏ`.
#[inline]
pub fn barrier(t: &impl Rounds) -> Result<()> {
    enter(t)?;
    let (n, me) = (t.n(), t.me());
    let (mut round, mut dist) = (0u32, 1usize);
    while dist < n {
        t.send((me + dist) % n, round, &[])?;
        t.recv((me + n - dist) % n, round)?;
        round += 1;
        dist <<= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast from team rank `root`; elsewhere `data` is
/// replaced by the root's buffer.
#[inline]
pub fn bcast<T: Pod>(t: &impl Rounds, root: usize, data: &mut Vec<T>) -> Result<()> {
    enter(t)?;
    let n = t.n();
    let vrank = (t.me() + n - root) % n;
    let unv = |v: usize| (v + root) % n;
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            *data = t.recv_pod(unv(vrank - mask), 0)?;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank & mask == 0 && vrank + mask < n {
            t.send_pod(unv(vrank + mask), 0, data)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Binomial-tree reduction to team rank `root` with an associative
/// combiner: `Some(result)` on the root, `None` elsewhere. Contributions
/// are combined in cyclic rank order starting at `root` (plain rank order
/// for root 0), so only a `root != 0` needs `f` commutative.
#[inline]
pub fn reduce<T: Pod>(
    t: &impl Rounds,
    root: usize,
    sendbuf: &[T],
    f: impl Fn(T, T) -> T,
) -> Result<Option<Vec<T>>> {
    enter(t)?;
    let n = t.n();
    let vrank = (t.me() + n - root) % n;
    let unv = |v: usize| (v + root) % n;
    let mut acc = sendbuf.to_vec();
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            t.send_pod(unv(vrank & !mask), 0, &acc)?;
            break;
        }
        if vrank | mask < n {
            let part: Vec<T> = t.recv_pod(unv(vrank | mask), 0)?;
            assert_eq!(part.len(), acc.len(), "reduction length mismatch");
            for (a, p) in acc.iter_mut().zip(part) {
                *a = f(*a, p);
            }
        }
        mask <<= 1;
    }
    Ok((vrank == 0).then_some(acc))
}

/// Bruck allgather of equal-length blocks, ⌈log₂ n⌉ rounds for any n.
/// Rank `me` accumulates blocks in the order me, me−1, me−2, …: round k
/// sends the first min(2ᵏ, n−2ᵏ) of them to `me+2ᵏ` and appends what
/// `me−2ᵏ` sent; one index pass at the end puts block i at index i. Each
/// round waits on a member that precedes `me`, as the barrier's does:
/// tasks on one run slot start in rank order, so the member waited on
/// has usually sent already, and a receive that finds nothing costs a
/// carrier hand-off. Meant for short blocks (window ids, split triples,
/// counts), where latency decides: log-depth beats a ring's n−1
/// dependent steps even though a block crosses the wire more than once.
#[inline]
pub fn allgather<T: Pod>(t: &impl Rounds, sendbuf: &[T]) -> Result<Vec<T>> {
    enter(t)?;
    let (n, me, len) = (t.n(), t.me(), sendbuf.len());
    // The rounds deliver 1 + Σ min(2ᵏ, n−2ᵏ) = n blocks in all.
    let mut acc = zeroed_vec(len * n);
    acc[..len].copy_from_slice(sendbuf);
    let (mut round, mut dist) = (0u32, 1usize);
    while dist < n {
        let blocks = dist.min(n - dist);
        t.send_pod((me + dist) % n, round, &acc[..blocks * len])?;
        t.recv_into((me + n - dist) % n, round, &mut acc[dist * len..(dist + blocks) * len])?;
        round += 1;
        dist <<= 1;
    }
    // Block j of `acc` is rank me−j's.
    let mut out = Vec::with_capacity(len * n);
    for i in 0..n {
        let j = (me + n - i) % n;
        out.extend_from_slice(&acc[j * len..(j + 1) * len]);
    }
    Ok(out)
}

/// Linear alltoall: every block sent in round 0, then every block
/// received in rank order. `sendbuf` holds `n` blocks of `block` elements
/// in destination order; `visit(s, b)` sees source `s`'s block `b` for
/// every `s`, the caller's own straight from `sendbuf` and each other
/// one read from the payload it arrived in (copied only if that payload
/// is misaligned for `T`). Untuned on purpose — it is the exchange a
/// tuned alltoall is measured against — and without the entry screen: a
/// dead member fails the receive.
///
/// # Panics
///
/// Panics unless every received block is `block` elements long.
#[inline]
pub fn alltoall_linear_visit<T: Pod>(
    t: &impl Rounds,
    sendbuf: &[T],
    block: usize,
    mut visit: impl FnMut(usize, &[T]),
) -> Result<()> {
    let (n, me) = (t.n(), t.me());
    assert_eq!(sendbuf.len(), n * block, "alltoall buffer size mismatch");
    let blk = |r: usize| r * block..(r + 1) * block;
    for d in (0..n).filter(|&d| d != me) {
        t.send_pod(d, 0, &sendbuf[blk(d)])?;
    }
    visit(me, &sendbuf[blk(me)]);
    for s in (0..n).filter(|&s| s != me) {
        let msg = t.recv(s, 0)?;
        let got = cast_or_copy::<T>(msg.as_ref());
        assert_eq!(got.len(), block, "a block of {} elements from {s}, not {block}", got.len());
        visit(s, &got);
    }
    Ok(())
}

/// [`alltoall_linear_visit`] into `recvbuf`, which receives the blocks
/// in source order.
#[inline]
pub fn alltoall_linear_into<T: Pod>(
    t: &impl Rounds,
    sendbuf: &[T],
    block: usize,
    recvbuf: &mut [T],
) -> Result<()> {
    assert_eq!(recvbuf.len(), sendbuf.len(), "alltoall buffer size mismatch");
    alltoall_linear_visit(t, sendbuf, block, |s, b| {
        recvbuf[s * block..(s + 1) * block].copy_from_slice(b);
    })
}

/// [`alltoall_linear_into`] a new vector.
#[inline]
pub fn alltoall_linear<T: Pod>(t: &impl Rounds, sendbuf: &[T], block: usize) -> Result<Vec<T>> {
    let mut out = zeroed_vec(sendbuf.len());
    alltoall_linear_into(t, sendbuf, block, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, Fabric, FabricConfig, Packet, Watch};
    use bytes::Bytes;
    use std::cell::Cell;

    /// Collective number `seq` of a job over bare endpoints, counting its
    /// receives that found nothing delivered: on one run slot each of
    /// those hands the slot to another carrier.
    struct EpRounds<'a> {
        ep: &'a Endpoint,
        seq: u64,
        misses: Cell<usize>,
    }

    impl<'a> EpRounds<'a> {
        fn new(ep: &'a Endpoint, seq: u64) -> Self {
            EpRounds { ep, seq, misses: Cell::new(0) }
        }
    }

    impl Rounds for EpRounds<'_> {
        type Buf = Bytes;
        fn n(&self) -> usize {
            self.ep.size()
        }
        fn me(&self) -> usize {
            self.ep.rank()
        }
        fn failed(&self) -> Vec<usize> {
            self.ep.fault().failed_set()
        }
        fn send(&self, to: usize, round: u32, bytes: &[u8]) -> Result<()> {
            let (h, payload) = ([self.seq, 0, 0, 0], Bytes::copy_from_slice(bytes));
            self.ep.send(to, Packet::with_payload(self.me(), 1, round.into(), h, payload))
        }
        fn recv(&self, from: usize, round: u32) -> Result<Bytes> {
            let pred = |p: &Packet| p.src == from && p.tag == i64::from(round) && p.h[0] == self.seq;
            let pkt = match self.ep.try_match(pred, Some) {
                Some(pkt) => pkt,
                None => {
                    self.misses.set(self.misses.get() + 1);
                    self.ep.match_blocking(Watch::All, pred, Some)?
                }
            };
            Ok(pkt.payload)
        }
    }

    /// x ↦ a·x + b (mod 2⁶⁴) as `[a, b]`; composition is associative and
    /// not commutative.
    fn then(f: [u64; 2], g: [u64; 2]) -> [u64; 2] {
        [f[0].wrapping_mul(g[0]), g[0].wrapping_mul(f[1]).wrapping_add(g[1])]
    }

    /// All four algorithms at every size where a round count, a tree
    /// edge or the Bruck rotation could go wrong, from every root.
    #[test]
    fn every_algorithm_at_every_size_from_every_root() {
        for n in (1usize..=17).chain([31, 32, 33, 63, 64, 65, 255, 256]) {
            Fabric::run(n, |ep| {
                let me = ep.rank() as u64;
                let mut seq = 0..;
                let mut next = || EpRounds::new(&ep, seq.next().expect("unbounded"));
                barrier(&next()).unwrap();
                for root in 0..n {
                    let (r, n) = (root as u64, n as u64);
                    let what = format!("n={n} root={root} rank={me}");
                    let mut data = if me == r { vec![r, 7, 9] } else { vec![] };
                    bcast(&next(), root, &mut data).unwrap();
                    assert_eq!(data, [r, 7, 9], "{what}");

                    let affine = |i: u64| [2 * i + 3, i + 1];
                    let got = reduce(&next(), root, &[affine(me)], then).unwrap();
                    let want = (0..n).map(|i| affine((r + i) % n)).reduce(then).expect("n >= 1");
                    assert_eq!(got, (me == r).then(|| vec![want]), "{what}");
                }
                let ones = allgather(&next(), &[me * 7]).unwrap();
                assert_eq!(ones, (0..n as u64).map(|r| r * 7).collect::<Vec<_>>(), "n={n}");
                let threes = allgather(&next(), &[me, me + 100, me + 200]).unwrap();
                let want: Vec<u64> = (0..n as u64).flat_map(|r| [r, r + 100, r + 200]).collect();
                assert_eq!(threes, want, "n={n}");
            });
        }
    }

    /// Entered in start order on one run slot, the barrier and the
    /// allgather each wait on members that ran before the waiter, so a
    /// receive finds nothing about once per member. (An allgather that
    /// waited on `me+2ᵏ`, a member yet to run, missed 1 793 times at
    /// P=256 straight from launch and 1 729 times after a barrier.) Run
    /// both ways: a barrier's members leave it in the order they entered.
    #[test]
    fn collectives_in_start_order_miss_about_once_per_member() {
        const P: usize = 256;
        let exec = caf_sched::ExecConfig { workers: 1, ..caf_sched::ExecConfig::tasks() };
        let cfg = FabricConfig { exec, ..FabricConfig::default() };
        let all: Vec<u64> = (0..P as u64).collect();
        let misses = Fabric::run_with_config(P, cfg, |ep| {
            let (first, b, second) =
                (EpRounds::new(&ep, 0), EpRounds::new(&ep, 1), EpRounds::new(&ep, 2));
            assert_eq!(allgather(&first, &[ep.rank() as u64]).unwrap(), all);
            barrier(&b).unwrap();
            assert_eq!(allgather(&second, &[ep.rank() as u64]).unwrap(), all);
            [first.misses.get(), b.misses.get(), second.misses.get()]
        });
        let total = |i: usize| misses.iter().map(|m| m[i]).sum::<usize>();
        let [first, b, second] = [total(0), total(1), total(2)];
        assert!(first <= P && b <= P && second <= P, "misses: {first}, {b}, {second}");
    }

    /// The entry screen: once a member is dead no collective sends.
    #[test]
    fn a_collective_on_a_broken_team_fails_without_sending() {
        let out = Fabric::run_with_config_ft(3, Default::default(), |ep| {
            if ep.rank() == 2 {
                ep.fail_now();
            }
            while !ep.fault().is_failed(2) {
                std::thread::yield_now();
            }
            let err = |e| matches!(e, FabricError::ImageFailed { failed } if failed == [2]);
            assert!(barrier(&EpRounds::new(&ep, 0)).is_err_and(err));
            assert!(allgather(&EpRounds::new(&ep, 1), &[1u8]).is_err_and(err));
            assert!(bcast(&EpRounds::new(&ep, 2), 0, &mut vec![1u8]).is_err_and(err));
            assert!(reduce(&EpRounds::new(&ep, 3), 0, &[1u8], |a, _| a).is_err_and(err));
            // Nothing but rank 2's notice was ever injected towards us.
            assert!(ep.try_recv().is_none());
        });
        assert_eq!(out, [Some(()), Some(()), None]);
    }
}
