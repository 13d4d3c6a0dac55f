//! Collective operations, implemented with the classic tuned algorithms:
//! dissemination barrier, binomial-tree broadcast/reduce, recursive-doubling
//! allreduce, Bruck allgather (ring for `allgatherv`'s large ragged blocks),
//! pairwise-exchange alltoall.
//!
//! The paper credits exactly this accumulated tuning for CAF-MPI's FFT win
//! over CAF-GASNet ("collectives in MPI are well-optimized over the years…
//! GASNet currently does not have collectives", §4.2/§5): the GASNet-side
//! runtime must hand-roll its alltoall from puts and barriers.
//!
//! All reductions assume commutative-associative combiners (true of every
//! predefined `AccOp` and of every combiner the CAF runtime passes down).

use bytes::Bytes;

use caf_fabric::delay::DelayOp;
use caf_fabric::pod::{as_bytes, vec_from_bytes};
use caf_fabric::topology::is_pow2;
use caf_fabric::{Packet, Pod, Result};

use crate::comm::Comm;
use crate::ops::combine_into;
use crate::p2p::KIND_COLL;
use crate::universe::Mpi;

impl Mpi {
    /// Internal collective send: same transport as user p2p but a separate
    /// packet kind, so collective traffic can never match user receives.
    fn coll_send_bytes(&self, comm: &Comm, dest: usize, ctag: i64, bytes: &[u8]) -> Result<()> {
        self.delays.charge(DelayOp::P2pInject, bytes.len());
        let pkt = Packet::with_payload(
            self.ep.rank(),
            KIND_COLL,
            ctag,
            [comm.id, comm.rank() as u64, 0, 0],
            Bytes::copy_from_slice(bytes),
        );
        self.ep.send(comm.global_rank(dest), pkt)
    }

    fn coll_send<T: Pod>(&self, comm: &Comm, dest: usize, ctag: i64, buf: &[T]) -> Result<()> {
        self.coll_send_bytes(comm, dest, ctag, as_bytes(buf))
    }

    /// Internal collective receive. Watches the *whole* communicator: a
    /// collective hangs if any member dies, not just the immediate
    /// neighbour in the current algorithm round.
    fn coll_recv<T: Pod>(&self, comm: &Comm, src: usize, ctag: i64) -> Result<Vec<T>> {
        let comm_id = comm.id;
        let pkt = self.match_packet(comm.members(), move |p| {
            p.kind == KIND_COLL && p.h[0] == comm_id && p.h[1] as usize == src && p.tag == ctag
        })?;
        self.delays.charge(DelayOp::P2pReceive, pkt.payload.len());
        Ok(vec_from_bytes(&pkt.payload))
    }

    /// Compose a collective tag from the per-comm sequence number and an
    /// algorithm phase.
    fn ctag(seq: u64, phase: u32) -> i64 {
        ((seq as i64) << 16) | phase as i64
    }

    /// `MPI_Barrier` — dissemination algorithm, ⌈log₂ n⌉ rounds.
    pub fn barrier(&self, comm: &Comm) -> Result<()> {
        let n = comm.size();
        if n == 1 {
            return Ok(());
        }
        let _span = caf_trace::span(caf_trace::Op::MpiBarrier);
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = (me + dist) % n;
            let from = (me + n - dist) % n;
            self.coll_send::<u8>(comm, to, Self::ctag(seq, round), &[])?;
            let _ = self.coll_recv::<u8>(comm, from, Self::ctag(seq, round))?;
            round += 1;
            dist <<= 1;
        }
        Ok(())
    }

    /// `MPI_Bcast` — binomial tree. On non-root ranks `data` is replaced by
    /// the root's buffer.
    pub fn bcast<T: Pod>(&self, comm: &Comm, root: usize, data: &mut Vec<T>) -> Result<()> {
        let n = comm.size();
        if n == 1 {
            return Ok(());
        }
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiBcast,
            Some(comm.global_rank(root)),
            std::mem::size_of_val(data.as_slice()) as u64,
            None,
        );
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        let vrank = (me + n - root) % n;
        let unv = |v: usize| (v + root) % n;

        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                *data = self.coll_recv::<T>(comm, unv(vrank - mask), Self::ctag(seq, 0))?;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < n {
                self.coll_send(comm, unv(vrank + mask), Self::ctag(seq, 0), data)?;
            }
            mask >>= 1;
        }
        Ok(())
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
        let n = comm.size();
        let mut acc = sendbuf.to_vec();
        if n == 1 {
            return Ok(Some(acc));
        }
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiReduce,
            Some(comm.global_rank(root)),
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        let vrank = (me + n - root) % n;
        let unv = |v: usize| (v + root) % n;

        let mut mask = 1usize;
        while mask < n {
            if vrank & mask == 0 {
                let src = vrank | mask;
                if src < n {
                    let part = self.coll_recv::<T>(comm, unv(src), Self::ctag(seq, 0))?;
                    combine_into(&mut acc, &part, &f);
                }
            } else {
                self.coll_send(comm, unv(vrank & !mask), Self::ctag(seq, 0), &acc)?;
                break;
            }
            mask <<= 1;
        }
        Ok(if me == root { Some(acc) } else { None })
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
        if n == 1 {
            return Ok(acc);
        }
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiReduce,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        if is_pow2(n) {
            let seq = self.next_coll_seq(comm);
            let me = comm.rank();
            let mut mask = 1usize;
            let mut phase = 0u32;
            while mask < n {
                let partner = me ^ mask;
                self.coll_send(comm, partner, Self::ctag(seq, phase), &acc)?;
                let part = self.coll_recv::<T>(comm, partner, Self::ctag(seq, phase))?;
                combine_into(&mut acc, &part, &f);
                mask <<= 1;
                phase += 1;
            }
            Ok(acc)
        } else {
            let reduced = self.reduce(comm, 0, &acc, &f)?;
            let mut data = reduced.unwrap_or_else(|| acc.clone());
            self.bcast(comm, 0, &mut data)?;
            Ok(data)
        }
    }

    /// `MPI_Gather` to `root` — linear. Returns the concatenated buffers in
    /// rank order on the root, `None` elsewhere. All contributions must
    /// have the same length.
    pub fn gather<T: Pod>(
        &self,
        comm: &Comm,
        root: usize,
        sendbuf: &[T],
    ) -> Result<Option<Vec<T>>> {
        let n = comm.size();
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiGather,
            Some(comm.global_rank(root)),
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        if me != root {
            self.coll_send(comm, root, Self::ctag(seq, 0), sendbuf)?;
            return Ok(None);
        }
        let mut out = vec![sendbuf[0]; sendbuf.len() * n];
        out[me * sendbuf.len()..(me + 1) * sendbuf.len()].copy_from_slice(sendbuf);
        for r in 0..n {
            if r == root {
                continue;
            }
            let part = self.coll_recv::<T>(comm, r, Self::ctag(seq, 0))?;
            assert_eq!(part.len(), sendbuf.len(), "ragged gather");
            out[r * sendbuf.len()..(r + 1) * sendbuf.len()].copy_from_slice(&part);
        }
        Ok(Some(out))
    }

    /// `MPI_Scatter` from `root`: distribute equal `chunk`-element blocks of
    /// `data` (significant only on the root) to all ranks.
    pub fn scatter<T: Pod>(
        &self,
        comm: &Comm,
        root: usize,
        data: &[T],
        chunk: usize,
    ) -> Result<Vec<T>> {
        let n = comm.size();
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        if me == root {
            assert_eq!(data.len(), chunk * n, "scatter buffer size mismatch");
            for r in 0..n {
                if r != root {
                    self.coll_send(comm, r, Self::ctag(seq, 0), &data[r * chunk..(r + 1) * chunk])?;
                }
            }
            Ok(data[me * chunk..(me + 1) * chunk].to_vec())
        } else {
            self.coll_recv::<T>(comm, root, Self::ctag(seq, 0))
        }
    }

    /// `MPI_Allgather` — Bruck's algorithm, ⌈log₂ n⌉ rounds for any n.
    /// Rank `me` accumulates blocks in the order me, me+1, me+2, …: round
    /// k sends the first min(2ᵏ, n−2ᵏ) of them to `me−2ᵏ` and appends
    /// what `me+2ᵏ` sent; one rotation at the end puts block i at index
    /// i. This is the short-message case (window ids, split triples,
    /// counts) where latency — here one task hand-off per message —
    /// decides, so log-depth beats a ring's n−1 dependent steps even
    /// though each block crosses the wire more than once.
    pub fn allgather<T: Pod>(&self, comm: &Comm, sendbuf: &[T]) -> Result<Vec<T>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiGather,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        let n = comm.size();
        let len = sendbuf.len();
        let mut out = Vec::with_capacity(len * n);
        out.extend_from_slice(sendbuf);
        if n == 1 {
            return Ok(out);
        }
        let seq = self.next_coll_seq(comm);
        let me = comm.rank();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let blocks = dist.min(n - dist);
            let tag = Self::ctag(seq, round);
            self.coll_send(comm, (me + n - dist) % n, tag, &out[..blocks * len])?;
            let part = self.coll_recv::<T>(comm, (me + dist) % n, tag)?;
            assert_eq!(part.len(), blocks * len, "ragged allgather");
            out.extend_from_slice(&part);
            round += 1;
            dist <<= 1;
        }
        out.rotate_right(me * len);
        Ok(out)
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
        // SAFETY-free zero fill via byte vector (Pod allows any pattern).
        let mut out = caf_fabric::pod::vec_from_bytes::<T>(&vec![
            0u8;
            total * std::mem::size_of::<T>()
        ]);
        out[displs[me]..displs[me] + counts[me]].copy_from_slice(data);

        let seq = self.next_coll_seq(comm);
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut have = me;
        for step in 0..n - 1 {
            let block = out[displs[have]..displs[have] + counts[have]].to_vec();
            self.coll_send(comm, right, Self::ctag(seq, step as u32), &block)?;
            let incoming = (me + n - 1 - step) % n;
            let part = self.coll_recv::<T>(comm, left, Self::ctag(seq, step as u32))?;
            assert_eq!(part.len(), counts[incoming], "allgatherv count mismatch");
            out[displs[incoming]..displs[incoming] + counts[incoming]].copy_from_slice(&part);
            have = incoming;
        }
        Ok(out)
    }

    /// `MPI_Alltoall` — pairwise exchange (XOR pairing on power-of-two
    /// sizes, shifted ring otherwise). `sendbuf` holds `n` equal blocks of
    /// `block` elements in destination-rank order.
    pub fn alltoall<T: Pod>(&self, comm: &Comm, sendbuf: &[T], block: usize) -> Result<Vec<T>> {
        let _span = caf_trace::span_t(
            caf_trace::Op::MpiAlltoall,
            None,
            std::mem::size_of_val(sendbuf) as u64,
            None,
        );
        let n = comm.size();
        assert_eq!(sendbuf.len(), n * block, "alltoall buffer size mismatch");
        let me = comm.rank();
        let mut out = vec![sendbuf[0]; n * block];
        out[me * block..(me + 1) * block].copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        if n == 1 {
            return Ok(out);
        }
        let seq = self.next_coll_seq(comm);
        for step in 1..n {
            let (to, from) = if is_pow2(n) {
                (me ^ step, me ^ step)
            } else {
                ((me + step) % n, (me + n - step) % n)
            };
            self.coll_send(
                comm,
                to,
                Self::ctag(seq, step as u32),
                &sendbuf[to * block..(to + 1) * block],
            )?;
            let part = self.coll_recv::<T>(comm, from, Self::ctag(seq, step as u32))?;
            out[from * block..(from + 1) * block].copy_from_slice(&part);
        }
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
        let n = comm.size();
        assert_eq!(sendbuf.len(), n * block, "alltoall buffer size mismatch");
        let me = comm.rank();
        let mut out = vec![sendbuf[0]; n * block];
        out[me * block..(me + 1) * block].copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        if n == 1 {
            return Ok(out);
        }
        let seq = self.next_coll_seq(comm);
        for d in 0..n {
            if d != me {
                self.coll_send(comm, d, Self::ctag(seq, 0), &sendbuf[d * block..(d + 1) * block])?;
            }
        }
        for s in 0..n {
            if s != me {
                let part = self.coll_recv::<T>(comm, s, Self::ctag(seq, 0))?;
                out[s * block..(s + 1) * block].copy_from_slice(&part);
            }
        }
        Ok(out)
    }

    /// `MPI_Scan` (inclusive prefix reduction) — linear chain.
    pub fn scan<T: Pod>(
        &self,
        comm: &Comm,
        sendbuf: &[T],
        f: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>> {
        let n = comm.size();
        let me = comm.rank();
        let mut acc = sendbuf.to_vec();
        if n == 1 {
            return Ok(acc);
        }
        let seq = self.next_coll_seq(comm);
        if me > 0 {
            let prev = self.coll_recv::<T>(comm, me - 1, Self::ctag(seq, 0))?;
            // acc = prev ∘ mine (prefix order).
            let mine = acc.clone();
            acc = prev;
            combine_into(&mut acc, &mine, &f);
        }
        if me + 1 < n {
            self.coll_send(comm, me + 1, Self::ctag(seq, 0), &acc)?;
        }
        Ok(acc)
    }

    /// Deterministic, communication-free congruent communicator: every
    /// rank derives the same child context id locally, with no
    /// synchronizing barrier. For runtime-internal channels that must
    /// exist before any traffic can flow — and whose creation must not
    /// block on a peer that a fault plan may already have killed.
    /// Single-use per parent: a second call returns the same id.
    pub fn comm_dup_local(&self, comm: &Comm) -> Comm {
        let id = crate::comm::derive_comm_id(comm.id, 0x5254, 0x52); // "RT"
        self.ensure_comm_state(id);
        Comm::new(id, comm.ranks.clone(), comm.my_idx)
    }

    /// `MPI_Comm_dup`: a congruent communicator with a fresh context id.
    pub fn comm_dup(&self, comm: &Comm) -> Result<Comm> {
        let child = self.next_child_index(comm);
        let id = crate::comm::derive_comm_id(comm.id, child, 0);
        let dup = Comm::new(id, comm.ranks.clone(), comm.my_idx);
        self.ensure_comm_state(id);
        // Real MPI_Comm_dup is collective; synchronize so no rank races
        // ahead and sends on the new context before everyone created it.
        self.barrier(comm)?;
        Ok(dup)
    }

    /// `MPI_Comm_split`: partition `comm` by `color`, ordering each part by
    /// `(key, rank)`.
    pub fn comm_split(&self, comm: &Comm, color: u64, key: i64) -> Result<Comm> {
        let me = comm.rank();
        let triples = self.allgather(comm, &[[color, key as u64, me as u64]])?;
        let mut mine: Vec<(i64, usize)> = triples
            .iter()
            .filter(|t| t[0] == color)
            .map(|t| (t[1] as i64, t[2] as usize))
            .collect();
        mine.sort_unstable();
        let ranks: Vec<usize> = mine
            .iter()
            .map(|&(_, r)| comm.global_rank(r))
            .collect();
        let my_idx = mine
            .iter()
            .position(|&(_, r)| r == me)
            .expect("self not in own color group");
        let child = self.next_child_index(comm);
        let id = crate::comm::derive_comm_id(comm.id, child, color);
        self.ensure_comm_state(id);
        Ok(Comm::new(id, ranks.into(), my_idx))
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
    fn gather_and_scatter_roundtrip() {
        let res = Universe::run(4, |mpi| {
            let w = mpi.world();
            let gathered = mpi.gather(&w, 2, &[mpi.rank() as u64]).unwrap();
            let data = gathered.unwrap_or_default();
            let chunk = mpi.scatter(&w, 2, &data, 1).unwrap();
            chunk[0]
        });
        assert_eq!(res, vec![0, 1, 2, 3]);
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
    fn scan_computes_prefixes() {
        let res = Universe::run(5, |mpi| {
            let w = mpi.world();
            mpi.scan(&w, &[mpi.rank() as u64 + 1], |a, b| a + b).unwrap()
        });
        assert_eq!(
            res,
            vec![vec![1], vec![3], vec![6], vec![10], vec![15]]
        );
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
            let d = mpi.comm_dup(&w).unwrap();
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
