//! The log-depth collectives every layer of this workspace shares:
//! dissemination barrier, binomial broadcast, binomial reduce and Bruck
//! allgather, each written once over a [`Rounds`] transport.
//!
//! Three transports exist: `caf-mpisim`'s `(Mpi, Comm, seq)` over
//! collective packets, `caf-gasnetsim`'s barrier packets, and the CAF
//! runtime's team collectives hand-rolled from chunked AMs. Trace spans,
//! cost charges and statistics stay with the transports and their
//! callers; this module owns the round structure and the entry screen.
//!
//! Everything is `#[inline]`: the functions are instantiated in the
//! substrate crates, without LTO.

use crate::pod::{as_bytes, vec_from_bytes};
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

    /// [`Rounds::recv`] into a typed vector.
    #[inline]
    fn recv_pod<T: Pod>(&self, from: usize, round: u32) -> Result<Vec<T>> {
        Ok(vec_from_bytes(self.recv(from, round)?.as_ref()))
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
/// Rank `me` accumulates blocks in the order me, me+1, me+2, …: round k
/// sends the first min(2ᵏ, n−2ᵏ) of them to `me−2ᵏ` and appends what
/// `me+2ᵏ` sent; one rotation at the end puts block i at index i. Meant
/// for short blocks (window ids, split triples, counts), where latency
/// decides: log-depth beats a ring's n−1 dependent steps even though a
/// block crosses the wire more than once.
#[inline]
pub fn allgather<T: Pod>(t: &impl Rounds, sendbuf: &[T]) -> Result<Vec<T>> {
    enter(t)?;
    let (n, me, len) = (t.n(), t.me(), sendbuf.len());
    let mut out = Vec::with_capacity(len * n);
    out.extend_from_slice(sendbuf);
    let (mut round, mut dist) = (0u32, 1usize);
    while dist < n {
        let blocks = dist.min(n - dist);
        t.send_pod((me + n - dist) % n, round, &out[..blocks * len])?;
        let part: Vec<T> = t.recv_pod((me + dist) % n, round)?;
        assert_eq!(part.len(), blocks * len, "ragged allgather");
        out.extend_from_slice(&part);
        round += 1;
        dist <<= 1;
    }
    out.rotate_right(me * len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, Fabric, Packet, Watch};
    use bytes::Bytes;

    /// Collective number `seq` of a job over bare endpoints.
    struct EpRounds<'a>(&'a Endpoint, u64);

    impl Rounds for EpRounds<'_> {
        type Buf = Bytes;
        fn n(&self) -> usize {
            self.0.size()
        }
        fn me(&self) -> usize {
            self.0.rank()
        }
        fn failed(&self) -> Vec<usize> {
            self.0.fault().failed_set()
        }
        fn send(&self, to: usize, round: u32, bytes: &[u8]) -> Result<()> {
            let (h, payload) = ([self.1, 0, 0, 0], Bytes::copy_from_slice(bytes));
            self.0.send(to, Packet::with_payload(self.me(), 1, round.into(), h, payload))
        }
        fn recv(&self, from: usize, round: u32) -> Result<Bytes> {
            let pred = |p: &Packet| p.src == from && p.tag == i64::from(round) && p.h[0] == self.1;
            Ok(self.0.match_blocking(Watch::All, pred, Some)?.payload)
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
        for n in (1usize..=17).chain([31, 32, 33]) {
            Fabric::run(n, |ep| {
                let me = ep.rank() as u64;
                let mut seq = 0..;
                let mut next = || EpRounds(&ep, seq.next().expect("unbounded"));
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
            assert!(barrier(&EpRounds(&ep, 0)).is_err_and(err));
            assert!(allgather(&EpRounds(&ep, 1), &[1u8]).is_err_and(err));
            assert!(bcast(&EpRounds(&ep, 2), 0, &mut vec![1u8]).is_err_and(err));
            assert!(reduce(&EpRounds(&ep, 3), 0, &[1u8], |a, _| a).is_err_and(err));
            // Nothing but rank 2's notice was ever injected towards us.
            assert!(ep.try_recv().is_none());
        });
        assert_eq!(out, [Some(()), Some(()), None]);
    }
}
