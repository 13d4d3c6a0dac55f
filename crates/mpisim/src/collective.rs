//! Collective operations, implemented with the classic tuned algorithms.
//!
//! Shared with the other layers, from `caf_fabric::coll`: dissemination
//! barrier, binomial-tree broadcast and reduce, Bruck allgather and the
//! untuned linear alltoall (CAF-GASNet's alltoall, and here the baseline
//! `alltoall_linear`) — here run over `CollRounds`, collective packets on
//! a communicator. Deliberately *not* shared, because each has one user:
//! recursive-doubling allreduce, pairwise-exchange alltoall, and
//! `allgatherv`'s data ring for large ragged blocks.
//!
//! The paper credits exactly this accumulated tuning for CAF-MPI's FFT win
//! over CAF-GASNet ("collectives in MPI are well-optimized over the years…
//! GASNet currently does not have collectives", §4.2/§5): the GASNet-side
//! runtime must hand-roll its alltoall from puts and barriers.
//!
//! All reductions assume commutative-associative combiners (true of every
//! predefined `AccOp` and of every combiner the CAF runtime passes down).

use std::sync::Arc;

use bytes::Bytes;

use caf_fabric::coll::{self, Rounds};
use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{cast_or_copy, zeroed_vec, ByteView};
use caf_fabric::topology::is_pow2;
use caf_fabric::{Packet, Pod, Result, Watch};

use crate::Comm;
use crate::ops::combine_into;
use crate::p2p::KIND_COLL;
use crate::universe::Mpi;

/// The rounds of one collective on a communicator, in a packet kind of
/// their own so collective traffic can never match user receives; a
/// message's tag is `tag`, the per-comm sequence number shifted left by
/// 16, or-ed with the algorithm round.
struct CollRounds<'a> {
    mpi: &'a Mpi,
    comm: &'a Comm,
    tag: i64,
}

impl Rounds for CollRounds<'_> {
    type Buf = Bytes;

    fn n(&self) -> usize {
        self.comm.size()
    }

    fn me(&self) -> usize {
        self.comm.rank()
    }

    fn failed(&self) -> Vec<usize> {
        self.mpi.fault.failed_of(Watch::Ranks(self.comm.members()))
    }

    fn send(&self, to: usize, round: u32, bytes: &[u8]) -> Result<()> {
        let tag = self.tag | i64::from(round);
        self.mpi.inject(KIND_COLL, self.comm, to, tag, bytes)
    }

    fn recv(&self, from: usize, round: u32) -> Result<Bytes> {
        let payload = self.matched(from, round)?;
        self.mpi.delays.charge(DelayOp::P2pReceive, payload.len());
        Ok(payload)
    }
}

/// The round in which a lending alltoall's receivers hand the lender's
/// slab back: its data rounds are 1..n.
const RELEASE: u32 = 0;

impl CollRounds<'_> {
    /// The payload team rank `from` sent in `round`, uncharged: block for
    /// it, watching the whole communicator.
    fn matched(&self, from: usize, round: u32) -> Result<Bytes> {
        let (comm_id, ctag) = (self.comm.id(), self.tag | i64::from(round));
        let pred = move |p: &Packet| {
            p.kind == KIND_COLL && p.h[0] == comm_id && p.h[1] as usize == from && p.tag == ctag
        };
        let watch = Watch::Ranks(self.comm.members());
        Ok(self.mpi.ep.match_blocking(watch, pred, Some)?.payload)
    }

    /// Send `payload` to `to` in `round` as it is, uncharged.
    fn post(&self, to: usize, round: u32, payload: Bytes) -> Result<()> {
        self.mpi.post(KIND_COLL, self.comm, to, self.tag | i64::from(round), payload)
    }
}

impl Mpi {
    /// The next collective on `comm`.
    fn rounds<'a>(&'a self, comm: &'a Comm) -> CollRounds<'a> {
        let tag = (comm.next_seq() as i64) << 16;
        CollRounds { mpi: self, comm, tag }
    }

    /// `MPI_Barrier` — dissemination algorithm, ⌈log₂ n⌉ rounds.
    pub fn barrier(&self, comm: &Comm) -> Result<()> {
        let _span = caf_trace::span(caf_trace::Op::MpiBarrier);
        coll::barrier(&self.rounds(comm))
    }

    /// `MPI_Bcast` — binomial tree. On non-root ranks `data` is replaced by
    /// the root's buffer.
    pub fn bcast<T: Pod>(&self, comm: &Comm, root: usize, data: &mut Vec<T>) -> Result<()> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiBcast,
            Some(comm.global_rank(root)),
            std::mem::size_of_val(data.as_slice()) as u64,
            None,
        );
        coll::bcast(&self.rounds(comm), root, data)
    }

    /// `MPI_Reduce` with a commutative-associative combiner — binomial tree.
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce<T: Pod>(
        &self,
        comm: &Comm,
        root: usize,
        sendbuf: &[T],
        f: impl Fn(T, T) -> T,
    ) -> Result<Option<Vec<T>>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiReduce,
            Some(comm.global_rank(root)),
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        coll::reduce(&self.rounds(comm), root, sendbuf, f)
    }

    /// `MPI_Allreduce` — recursive doubling on power-of-two sizes,
    /// reduce+broadcast otherwise.
    pub fn allreduce<T: Pod>(
        &self,
        comm: &Comm,
        sendbuf: &[T],
        f: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>> {
        let n = comm.size();
        let mut acc = sendbuf.to_vec();
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiReduce,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        if is_pow2(n) {
            let t = self.rounds(comm);
            coll::enter(&t)?;
            let me = comm.rank();
            let mut mask = 1usize;
            let mut phase = 0u32;
            while mask < n {
                let partner = me ^ mask;
                t.send_pod(partner, phase, &acc)?;
                let part: Vec<T> = t.recv_pod(partner, phase)?;
                combine_into(&mut acc, &part, &f);
                mask <<= 1;
                phase += 1;
            }
            Ok(acc)
        } else {
            let reduced = self.reduce(comm, 0, &acc, &f)?;
            let mut data = reduced.unwrap_or(acc);
            self.bcast(comm, 0, &mut data)?;
            Ok(data)
        }
    }

    /// `MPI_Allgather` — Bruck's algorithm, ⌈log₂ n⌉ rounds for any n
    /// (see [`coll::allgather`]).
    pub fn allgather<T: Pod>(&self, comm: &Comm, sendbuf: &[T]) -> Result<Vec<T>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiGather,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        coll::allgather(&self.rounds(comm), sendbuf)
    }

    /// `MPI_Allgatherv` — variable-length allgather: each rank contributes
    /// `data.len()` elements (may differ per rank); the result concatenates
    /// all contributions in rank order. A count exchange (the log-depth
    /// [`Mpi::allgather`]) and then a ring for the data: these blocks are
    /// large (HPL panels), so bandwidth decides, and the ring moves every
    /// byte exactly once where Bruck would resend accumulated blocks.
    pub fn allgatherv<T: Pod>(&self, comm: &Comm, data: &[T]) -> Result<Vec<T>> {
        let n = comm.size();
        if n == 1 {
            return Ok(data.to_vec());
        }
        let counts: Vec<usize> = self
            .allgather(comm, &[data.len() as u64])?
            .into_iter()
            .map(|c| c as usize)
            .collect();
        let displs: Vec<usize> = counts
            .iter()
            .scan(0usize, |acc, &c| {
                let d = *acc;
                *acc += c;
                Some(d)
            })
            .collect();
        let total: usize = counts.iter().sum();
        let me = comm.rank();
        let block = |r: usize| displs[r]..displs[r] + counts[r];
        let mut out = zeroed_vec::<T>(total);
        out[block(me)].copy_from_slice(data);

        let t = self.rounds(comm);
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut have = me;
        for step in 0..n - 1 {
            t.send_pod(right, step as u32, &out[block(have)])?;
            let incoming = (me + n - 1 - step) % n;
            t.recv_into(left, step as u32, &mut out[block(incoming)])?;
            have = incoming;
        }
        Ok(out)
    }

    /// `MPI_Alltoall` — pairwise exchange (XOR pairing on power-of-two
    /// sizes, shifted ring otherwise) — from a send slab the caller hands
    /// over. `slab` holds `n` equal blocks of `block` elements in
    /// destination-rank order; `visit(s, b)` sees source `s`'s block `b`
    /// for every `s`, the caller's own straight from `slab` and each
    /// other one read from the packet it arrived in. The slab comes back
    /// when every partner is done with it.
    ///
    /// The slab is lent, not copied: it is frozen into one `Bytes` and
    /// each destination's packet is a slice of it. A receiver drops its
    /// packet once visited and then sends the lender a zero-byte release
    /// (round [`RELEASE`]); the lender takes the slab back after the
    /// releases of all its partners, through the same blocking receive as
    /// every round, so a dead partner fails the call with `ImageFailed`.
    /// The release stands for the buffer-reuse guarantee an eager copy
    /// gives for free, and is charged to no `DelayOp`.
    ///
    /// # Panics
    ///
    /// Panics unless `slab` holds `n` blocks and every received block is
    /// `block` elements long.
    pub fn alltoall_lend<T: Pod>(
        &self,
        comm: &Comm,
        slab: Vec<T>,
        block: usize,
        mut visit: impl FnMut(usize, &[T]),
    ) -> Result<Vec<T>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiAlltoall,
            None,
            std::mem::size_of_val(slab.as_slice()) as u64,
            None,
        );
        let (n, me) = (comm.size(), comm.rank());
        assert_eq!(slab.len(), n * block, "alltoall buffer size mismatch");
        visit(me, &slab[me * block..(me + 1) * block]);
        if n == 1 {
            return Ok(slab);
        }
        let bytes = std::mem::size_of::<T>() * block;
        let slab = Arc::new(slab);
        let frozen = Bytes::from_owner(ByteView(Arc::clone(&slab)));
        let t = self.rounds(comm);
        for step in 1..n {
            let (to, from) = if is_pow2(n) {
                (me ^ step, me ^ step)
            } else {
                ((me + step) % n, (me + n - step) % n)
            };
            self.delays.charge(DelayOp::P2pInject, bytes);
            t.post(to, step as u32, frozen.slice(to * bytes..(to + 1) * bytes))?;
            {
                let msg = t.recv(from, step as u32)?;
                let got = cast_or_copy::<T>(&msg);
                assert_eq!(got.len(), block, "a block of {} elements from {from}, not {block}", got.len());
                visit(from, &got);
            } // The last view of `from`'s slab is dropped here.
            t.post(from, RELEASE, Bytes::new())?;
        }
        drop(frozen);
        for from in (0..n).filter(|&r| r != me) {
            t.matched(from, RELEASE)?;
        }
        Ok(Arc::try_unwrap(slab).unwrap_or_else(|_| unreachable!("a released slab is unshared")))
    }

    /// [`Mpi::alltoall_lend`] from a copy of `sendbuf`, into `recvbuf`,
    /// owned by the caller as in MPI, which receives the blocks in
    /// source-rank order.
    pub fn alltoall_into<T: Pod>(
        &self,
        comm: &Comm,
        sendbuf: &[T],
        block: usize,
        recvbuf: &mut [T],
    ) -> Result<()> {
        assert_eq!(recvbuf.len(), sendbuf.len(), "alltoall buffer size mismatch");
        self.alltoall_lend(comm, sendbuf.to_vec(), block, |s, b| {
            recvbuf[s * block..(s + 1) * block].copy_from_slice(b);
        })
        .map(drop)
    }

    /// [`Mpi::alltoall_into`] a new vector.
    pub fn alltoall<T: Pod>(&self, comm: &Comm, sendbuf: &[T], block: usize) -> Result<Vec<T>> {
        let mut out = zeroed_vec(sendbuf.len());
        self.alltoall_into(comm, sendbuf, block, &mut out)?;
        Ok(out)
    }

    /// Untuned alltoall (linear exchange: every rank posts all sends, then
    /// drains all receives). Correct but ignores pairing and congestion —
    /// the ablation baseline quantifying what `MPI_ALLTOALL`'s tuning buys
    /// (the paper's §4.2/§5 claim about collective maturity).
    pub fn alltoall_linear<T: Pod>(
        &self,
        comm: &Comm,
        sendbuf: &[T],
        block: usize,
    ) -> Result<Vec<T>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiAlltoall,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        coll::alltoall_linear(&self.rounds(comm), sendbuf, block)
    }

    /// Deterministic, communication-free congruent communicator: every
    /// rank derives the same child context id locally, with no
    /// synchronizing barrier. For runtime-internal channels that must
    /// exist before any traffic can flow — and whose creation must not
    /// block on a peer that a fault plan may already have killed.
    /// A second call returns the same communicator.
    pub fn comm_dup_local(&self, comm: &Comm) -> Comm {
        comm.dup_local(0x5254, 0x52) // "RT"
    }

    /// `MPI_Comm_split`: partition `comm` by `color`, ordering each part by
    /// `(key, rank)`.
    pub fn comm_split(&self, comm: &Comm, color: u64, key: i64) -> Result<Comm> {
        comm.split(color, key, |triple| self.allgather(comm, triple))
    }
}

#[cfg(test)]
mod tests {

    use crate::universe::Universe;

    #[test]
    fn barrier_completes_at_many_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            Universe::run(n, |mpi| {
                for _ in 0..3 {
                    mpi.barrier(&mpi.world()).unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1usize, 4, 7] {
            for root in 0..n {
                let res = Universe::run(n, move |mpi| {
                    let w = mpi.world();
                    let mut data = if mpi.rank() == root {
                        vec![root as u64 * 10, 1, 2, 3]
                    } else {
                        Vec::new()
                    };
                    mpi.bcast(&w, root, &mut data).unwrap();
                    data
                });
                for r in res {
                    assert_eq!(r, vec![root as u64 * 10, 1, 2, 3]);
                }
            }
        }
    }

    #[test]
    fn reduce_sums_ranks() {
        for n in [1usize, 2, 6, 8] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                mpi.reduce(&w, 0, &[mpi.rank() as u64, 1], |a, b| a + b)
                    .unwrap()
            });
            let expect: u64 = (0..n as u64).sum();
            assert_eq!(res[0], Some(vec![expect, n as u64]));
            for r in &res[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let res = Universe::run(5, |mpi| {
            let w = mpi.world();
            mpi.reduce(&w, 3, &[mpi.rank() as i64], |a, b| a.max(b))
                .unwrap()
        });
        assert_eq!(res[3], Some(vec![4]));
        assert!(res[0].is_none());
    }

    #[test]
    fn allreduce_pow2_and_non_pow2() {
        for n in [2usize, 4, 8, 3, 6] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                mpi.allreduce(&w, &[1.0f64, mpi.rank() as f64], |a, b| a + b)
                    .unwrap()
            });
            let sum: f64 = (0..n).map(|r| r as f64).sum();
            for r in res {
                assert_eq!(r, vec![n as f64, sum]);
            }
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        for n in [1usize, 3, 4, 8] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                mpi.allgather(&w, &[mpi.rank() as u32 * 2, mpi.rank() as u32 * 2 + 1])
                    .unwrap()
            });
            let expect: Vec<u32> = (0..2 * n as u32).collect();
            for r in res {
                assert_eq!(r, expect);
            }
        }
    }

    /// Every size where a Bruck round count or the final rotation could
    /// go wrong — all of 1..=17 and both sides of 32 — with one- and
    /// three-element blocks, as OS threads and as tasks on two run
    /// slots. `comm_split` and `allgatherv` ride the same exchange (their
    /// triples and counts), so they are swept with it.
    #[test]
    #[cfg_attr(miri, ignore = "launches 80 jobs of up to 33 ranks")]
    fn allgather_family_at_every_size_in_both_exec_modes() {
        use caf_fabric::{ExecConfig, Fabric, FabricConfig};

        let tasks = ExecConfig { workers: 2, ..ExecConfig::tasks() };
        for exec in [ExecConfig::default(), tasks] {
            for n in (1usize..=17).chain([31, 32, 33]) {
                let config = FabricConfig { exec, ..FabricConfig::default() };
                Fabric::run_with_config(n, config, |ep| {
                    let mpi = crate::Mpi::init(ep, crate::MpiConfig::default());
                    let (w, me) = (mpi.world(), mpi.rank() as u64);
                    let what = format!("n={n} rank={me} {:?}", exec.mode);

                    let ones = mpi.allgather(&w, &[me * 7]).unwrap();
                    assert_eq!(ones, (0..n as u64).map(|r| r * 7).collect::<Vec<_>>(), "{what}");
                    let threes = mpi.allgather(&w, &[me, me + 100, me + 200]).unwrap();
                    let expect: Vec<u64> =
                        (0..n as u64).flat_map(|r| [r, r + 100, r + 200]).collect();
                    assert_eq!(threes, expect, "{what}");

                    // Rank r contributes r % 4 elements (some none).
                    let ragged = mpi.allgatherv(&w, &vec![me; me as usize % 4]).unwrap();
                    let expect: Vec<u64> = (0..n as u64)
                        .flat_map(|r| std::iter::repeat_n(r, r as usize % 4))
                        .collect();
                    assert_eq!(ragged, expect, "{what}");

                    // Three colours, keys reversing the rank order.
                    let sub = mpi.comm_split(&w, me % 3, -(me as i64)).unwrap();
                    let peers: Vec<usize> =
                        (0..n).rev().filter(|r| r % 3 == me as usize % 3).collect();
                    assert_eq!(sub.members(), &peers[..], "{what}");
                    assert_eq!(sub.global_rank(sub.rank()), me as usize, "{what}");
                });
            }
        }
    }

    #[test]
    fn allgatherv_with_ragged_contributions() {
        for n in [1usize, 2, 3, 5, 8] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                // Rank r contributes r+1 copies of r*11.
                let mine = vec![mpi.rank() as u64 * 11; mpi.rank() + 1];
                mpi.allgatherv(&w, &mine).unwrap()
            });
            let mut expect = Vec::new();
            for r in 0..n {
                expect.extend(std::iter::repeat_n(r as u64 * 11, r + 1));
            }
            for r in res {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allgatherv_with_empty_contributions() {
        let res = Universe::run(4, |mpi| {
            let w = mpi.world();
            let mine: Vec<u64> = if mpi.rank() % 2 == 0 {
                vec![]
            } else {
                vec![mpi.rank() as u64]
            };
            mpi.allgatherv(&w, &mine).unwrap()
        });
        for r in res {
            assert_eq!(r, vec![1, 3]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        for n in [1usize, 2, 4, 8, 3, 6] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                // element (me, dest) = me*100 + dest
                let send: Vec<u64> = (0..n).map(|d| (mpi.rank() * 100 + d) as u64).collect();
                mpi.alltoall(&w, &send, 1).unwrap()
            });
            for (me, r) in res.iter().enumerate() {
                let expect: Vec<u64> = (0..n).map(|s| (s * 100 + me) as u64).collect();
                assert_eq!(r, &expect, "n={n} rank={me}");
            }
        }
    }

    /// Every block is visited once, from the right source, and the slab
    /// comes back as it was lent: same buffer, same contents.
    #[test]
    fn a_lent_alltoall_visits_every_block_and_returns_the_slab() {
        for n in [1usize, 2, 3, 4, 6, 8] {
            Universe::run(n, |mpi| {
                let (w, me) = (mpi.world(), mpi.rank());
                let slab: Vec<u64> = (0..n * 3).map(|i| (me * 1000 + i) as u64).collect();
                let (at, kept) = (slab.as_ptr(), slab.clone());
                let mut seen = vec![0usize; n];
                let back = mpi
                    .alltoall_lend(&w, slab, 3, |s, b| {
                        seen[s] += 1;
                        let want: Vec<u64> = (me * 3..me * 3 + 3).map(|i| (s * 1000 + i) as u64).collect();
                        assert_eq!(b, want, "n={n} rank={me} from {s}");
                    })
                    .unwrap();
                assert_eq!(seen, vec![1; n], "n={n} rank={me}");
                assert_eq!((back.as_ptr(), back), (at, kept), "n={n} rank={me}");
            });
        }
    }

    /// A partner that dies before releasing the lender's slab fails the
    /// lender's call with `ImageFailed`: the wait for the release watches
    /// the communicator, as every round's receive does. Rank 2 sends its
    /// first block and dies at its first receive, so rank 3 has its data
    /// and waits only for its release. On threads and on one run slot.
    ///
    /// `Blocking(0)` kills at the first receive that finds nothing, so
    /// rank 3, rank 2's first partner, enters only once rank 2 is dead:
    /// rank 2's first receive then always blocks, whatever the timing.
    #[test]
    fn a_lent_alltoall_with_a_dead_partner_fails_instead_of_hanging() {
        use caf_fabric::{ExecConfig, Fabric, FabricConfig, FabricError, FaultPlan, KillSite, Watch};

        let one_slot = ExecConfig { workers: 1, ..ExecConfig::tasks() };
        for exec in [ExecConfig::default(), one_slot] {
            let fault = FaultPlan::kill(2, KillSite::Blocking(0));
            let config = FabricConfig { exec, fault, ..FabricConfig::default() };
            let out = Fabric::run_with_config_ft(4, config, |ep| {
                let mpi = crate::Mpi::init(ep, crate::MpiConfig::default());
                if mpi.rank() == 3 {
                    // Rank 2's block arrives first and waits in the stash.
                    let death = mpi.ep.match_blocking(Watch::Ranks(&[2]), |_| false, Some);
                    assert!(death.is_err());
                }
                let got = mpi.alltoall_lend(&mpi.world(), (0..8u64).collect(), 2, |_, _| {});
                let dead = |e: &FabricError| matches!(e, FabricError::ImageFailed { failed } if failed == &[2]);
                assert!(got.as_ref().is_err_and(dead), "rank {}: {got:?}", mpi.rank());
            });
            assert_eq!(out, [Some(()), Some(()), None, Some(())], "{:?}", exec.mode);
        }
    }

    #[test]
    fn alltoall_linear_matches_tuned() {
        for n in [1usize, 3, 4, 8] {
            let res = Universe::run(n, |mpi| {
                let w = mpi.world();
                let send: Vec<u64> = (0..n * 2).map(|i| (mpi.rank() * 1000 + i) as u64).collect();
                let tuned = mpi.alltoall(&w, &send, 2).unwrap();
                let naive = mpi.alltoall_linear(&w, &send, 2).unwrap();
                assert_eq!(tuned, naive);
            });
            drop(res);
        }
    }

    #[test]
    fn comm_split_partitions() {
        let res = Universe::run(8, |mpi| {
            let w = mpi.world();
            let color = (mpi.rank() % 2) as u64;
            let sub = mpi.comm_split(&w, color, mpi.rank() as i64).unwrap();
            // Sum ranks within each half.
            let s = mpi
                .allreduce(&sub, &[mpi.rank() as u64], |a, b| a + b)
                .unwrap();
            (sub.rank(), sub.size(), s[0])
        });
        // Evens: 0+2+4+6 = 12; odds: 1+3+5+7 = 16.
        for (g, &(sr, ss, sum)) in res.iter().enumerate() {
            assert_eq!(ss, 4);
            assert_eq!(sr, g / 2);
            assert_eq!(sum, if g % 2 == 0 { 12 } else { 16 });
        }
    }

    #[test]
    fn comm_dup_isolates_traffic() {
        Universe::run(2, |mpi| {
            let w = mpi.world();
            let d = mpi.comm_dup_local(&w);
            assert_ne!(d.id(), w.id());
            if mpi.rank() == 0 {
                // Same tag on both comms; receiver must distinguish.
                mpi.send(&w, 1, 0, &[1u64]).unwrap();
                mpi.send(&d, 1, 0, &[2u64]).unwrap();
            } else {
                use crate::p2p::{Src, Tag};
                let (on_dup, _) = mpi.recv::<u64>(&d, Src::Rank(0), Tag::Is(0)).unwrap();
                let (on_world, _) = mpi.recv::<u64>(&w, Src::Rank(0), Tag::Is(0)).unwrap();
                assert_eq!((on_world[0], on_dup[0]), (1, 2));
            }
        });
    }

    #[test]
    fn split_then_collectives_interleave_safely() {
        Universe::run(6, |mpi| {
            let w = mpi.world();
            let sub = mpi
                .comm_split(&w, (mpi.rank() % 3) as u64, 0)
                .unwrap();
            let x = mpi
                .allreduce(&sub, &[1u64], |a, b| a + b)
                .unwrap();
            assert_eq!(x[0], 2);
            mpi.barrier(&w).unwrap();
        });
    }
}
