//! Team collectives.
//!
//! On the MPI substrate these delegate to the MPI library's collectives —
//! "well-optimized over the years by different MPI implementations"
//! (paper §5), which is where CAF-MPI's FFT advantage comes from.
//!
//! On the GASNet substrate the runtime must hand-roll every collective from
//! active messages, because the GASNet core API has none (paper §4.2):
//! `TeamRounds` carries a collective's messages as runtime AMs, chunked
//! to the medium-AM limit. Barrier, broadcast, reduce and allgather run
//! the algorithms of `caf_fabric::coll` over it — the ones `caf-mpisim`
//! runs, since their cost is this runtime's and not a finding of the
//! paper. What *is* a finding stays untuned on purpose: `alltoall` is the
//! linear exchange behind Figs 6/7 (`coll::alltoall_linear`, as is
//! `allgatherv`'s data phase), and allreduce is reduce-then-broadcast,
//! without MPI's recursive doubling. A team is one `caf_fabric::Group` on
//! both substrates, so `team_split` and `team_reform` call its split and
//! shrink.

use std::collections::hash_map::{Entry, HashMap};

use bytes::BytesMut;

use caf_fabric::coll::{self, Rounds};
use caf_fabric::pod::zeroed_vec;
use caf_fabric::{Group, Pod, Watch};
use caf_gasnetsim::AM_MAX_MEDIUM;

use crate::image::Image;
use crate::rtmsg::{write_coll_header, COLL_HEADER};
use crate::stat::Stat;
use crate::stats::StatCat;
use crate::team::Team;

/// Payload bytes per hand-rolled-collective fragment (medium-AM limit
/// minus headroom for the runtime-message header).
const GCOLL_CHUNK: usize = AM_MAX_MEDIUM - 64;

/// Hand-rolled-collective messages on their way to a consumer, by
/// `(team_id, seq, phase, src_idx)`: how many fragments are still missing,
/// and the bytes of those that arrived, joined. AMs between two images are
/// delivered in order, so joining is appending, into a buffer sized for
/// every fragment when the first arrives.
pub(crate) type CollStash = HashMap<(u64, u64, u32, u32), (u32, Vec<u8>)>;

/// The rounds of one collective on a GASNet team, as chunked
/// [`crate::rtmsg::RtMsg::CollPayload`] runtime AMs.
struct TeamRounds<'a> {
    img: &'a Image,
    t: &'a Group,
    seq: u64,
}

impl Rounds for TeamRounds<'_> {
    type Buf = Vec<u8>;

    fn n(&self) -> usize {
        self.t.size()
    }

    fn me(&self) -> usize {
        self.t.rank()
    }

    fn failed(&self) -> Vec<usize> {
        self.img.backend.fault().failed_of(Watch::Ranks(self.t.members()))
    }

    /// Each fragment is framed in the buffer its packet then owns — the
    /// `RtMsg::CollPayload` encoding, written in place — so its bytes
    /// are copied once, from `bytes` into the packet.
    fn send(&self, to: usize, round: u32, bytes: &[u8]) -> caf_fabric::Result<()> {
        let nchunks = bytes.len().div_ceil(GCOLL_CHUNK).max(1) as u32;
        let (team_id, src_idx) = (self.t.id(), self.t.rank() as u32);
        for (i, chunk) in bytes
            .chunks(GCOLL_CHUNK)
            .chain(std::iter::repeat_n(&[][..], usize::from(bytes.is_empty())))
            .enumerate()
        {
            let mut frame = BytesMut::zeroed(COLL_HEADER + chunk.len());
            let (head, data) = frame.split_at_mut(COLL_HEADER);
            write_coll_header(head, team_id, self.seq, round, src_idx, i as u32, nchunks);
            data.copy_from_slice(chunk);
            self.img.backend.send_rtmsg_bytes(self.t.global_rank(to), frame.freeze());
        }
        Ok(())
    }

    /// Handles runtime messages until every fragment is in the stash. A
    /// failure abandons the partially received collective; the team's
    /// next collective drops what it left behind ([`Image::rounds`]).
    fn recv(&self, from: usize, round: u32) -> caf_fabric::Result<Vec<u8>> {
        let key = (self.t.id(), self.seq, round, from as u32);
        loop {
            if let Entry::Occupied(e) = self.img.coll_stash.borrow_mut().entry(key) {
                if e.get().0 == 0 {
                    return Ok(e.remove().1);
                }
            }
            let frame = self
                .img
                .backend
                .recv_rtmsg_blocking_stat(Watch::Ranks(self.t.members()))?;
            self.img.handle_msg(&frame);
        }
    }
}

impl Image {
    /// Team barrier (`sync team` / `sync all` on the world team).
    ///
    /// # Panics
    ///
    /// Panics when a team member has failed; [`Image::barrier_stat`]
    /// reports it instead.
    pub fn barrier(&self, team: &Team) {
        self.barrier_stat(team).expect_ok("barrier");
    }

    /// Convenience: barrier over `TEAM_WORLD` (`sync all`).
    pub fn sync_all(&self) {
        let w = self.team_world();
        self.barrier(&w);
    }

    /// As [`Image::barrier`], with a failure screen: returns
    /// [`crate::Stat::FailedImage`] (with the failed members) instead of
    /// hanging or panicking when a team member has died mid-barrier.
    pub fn barrier_stat(&self, team: &Team) -> Stat {
        self.collective(team, Some(StatCat::Barrier), |g| {
            let done = match self.backend.coll_mpi() {
                Some(mpi) => mpi.barrier(g),
                None => coll::barrier(&self.rounds(g)),
            };
            done.map_or_else(|e| self.stat_failed(e), |()| Stat::Ok)
        })
    }

    /// `sync all` with a failure screen (`sync all (stat=...)`).
    pub fn sync_all_stat(&self) -> Stat {
        let w = self.team_world();
        self.barrier_stat(&w)
    }

    /// Team broadcast from `root` (team rank).
    pub fn broadcast<T: Pod>(&self, team: &Team, root: usize, data: &mut Vec<T>) {
        self.collective(team, Some(StatCat::Reduction), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.bcast(g, root, data),
                None => coll::bcast(&self.rounds(g), root, data),
            }
            .expect("bcast")
        });
    }

    /// Team reduction to `root` with a commutative-associative combiner.
    pub fn reduce<T: Pod>(
        &self,
        team: &Team,
        root: usize,
        data: &[T],
        f: impl Fn(T, T) -> T,
    ) -> Option<Vec<T>> {
        self.collective(team, Some(StatCat::Reduction), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.reduce(g, root, data, f),
                None => coll::reduce(&self.rounds(g), root, data, f),
            }
            .expect("reduce")
        })
    }

    /// Team allreduce.
    ///
    /// # Panics
    ///
    /// Panics when a team member has failed; [`Image::allreduce_stat`]
    /// reports it instead.
    pub fn allreduce<T: Pod>(&self, team: &Team, data: &[T], f: impl Fn(T, T) -> T) -> Vec<T> {
        self.allreduce_stat(team, data, f).unwrap_or_else(|stat| {
            stat.expect_ok("allreduce");
            unreachable!("allreduce_stat fails with a failed set")
        })
    }

    /// As [`Image::allreduce`], with a failure screen: `Err` carries
    /// [`crate::Stat::FailedImage`] with the failed members. The
    /// termination-detection loop of [`Image::finish_stat`] is built on
    /// this — the paper's counter rounds double as the failure-detection
    /// heartbeat.
    pub fn allreduce_stat<T: Pod>(
        &self,
        team: &Team,
        data: &[T],
        f: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, Stat> {
        self.collective(team, Some(StatCat::Reduction), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.allreduce(g, data, f),
                // Hand-rolled: reduce to team rank 0, then broadcast —
                // correct, but without the recursive-doubling tuning of
                // the MPI library.
                None => coll::reduce(&self.rounds(g), 0, data, &f).and_then(|reduced| {
                    let mut out = reduced.unwrap_or_else(|| data.to_vec());
                    coll::bcast(&self.rounds(g), 0, &mut out)?;
                    Ok(out)
                }),
            }
            .map_err(|e| self.stat_failed(e))
        })
    }

    /// Team allgather of equal-length contributions, concatenated in team
    /// order.
    pub fn allgather<T: Pod>(&self, team: &Team, data: &[T]) -> Vec<T> {
        self.collective(team, Some(StatCat::Reduction), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.allgather(g, data),
                None => coll::allgather(&self.rounds(g), data),
            }
            .expect("allgather")
        })
    }

    /// Variable-length team allgather: contributions may differ in length
    /// per image; the result concatenates them in team order.
    pub fn allgatherv<T: Pod>(&self, team: &Team, data: &[T]) -> Vec<T> {
        self.collective(team, Some(StatCat::Reduction), |g| match self.backend.coll_mpi() {
            Some(mpi) => mpi.allgatherv(g, data).expect("allgatherv"),
            None => {
                // Hand-rolled: exchange counts, then linear exchange of
                // the ragged payloads.
                let counts = coll::allgather(&self.rounds(g), &[data.len() as u64])
                    .expect("allgatherv counts");
                let r = self.rounds(g);
                let me = g.rank();
                for d in (0..counts.len()).filter(|&d| d != me) {
                    r.send_pod(d, 1, data).expect("allgatherv");
                }
                let mut out = zeroed_vec(counts.iter().sum::<u64>() as usize);
                let mut at = 0;
                for (s, &count) in counts.iter().enumerate() {
                    let part = &mut out[at..at + count as usize];
                    if s == me {
                        part.copy_from_slice(data);
                    } else {
                        r.recv_into(s, 1, part).expect("allgatherv");
                    }
                    at += count as usize;
                }
                out
            }
        })
    }

    /// Team alltoall: `data` holds `team.size()` blocks of `block` elements
    /// in destination order; `out` receives the blocks in source order.
    /// A received block is copied once, into `out`: this is
    /// [`Image::alltoall_lend`]'s exchange with a copying visitor.
    pub fn alltoall_into<T: Pod>(&self, team: &Team, data: &[T], block: usize, out: &mut [T]) {
        self.collective(team, Some(StatCat::Alltoall), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.alltoall_into(g, data, block, out),
                None => coll::alltoall_linear_into(&self.rounds(g), data, block, out),
            }
            .expect("alltoall")
        });
    }

    /// [`Image::alltoall_into`] a new vector.
    pub fn alltoall<T: Pod>(&self, team: &Team, data: &[T], block: usize) -> Vec<T> {
        let mut out = zeroed_vec(data.len());
        self.alltoall_into(team, data, block, &mut out);
        out
    }

    /// Team alltoall from a send slab the caller hands over and gets
    /// back: `slab` holds `team.size()` blocks of `block` elements in
    /// destination order, and `visit(s, b)` sees source `s`'s block `b`
    /// for every `s`, read where it arrived.
    ///
    /// This is the FFT transpose primitive. On CAF-MPI it is
    /// `MPI_ALLTOALL`, and the slab is lent to the packets rather than
    /// copied into them ([`caf_mpisim::Mpi::alltoall_lend`]); on
    /// CAF-GASNet it is hand-rolled from AMs (paper §4.2: "CAF-GASNet
    /// implements alltoall with GASNet's PUT, GET, and Active Messages...
    /// not as well tuned as MPI_ALLTOALL"), linear on purpose — the
    /// paper's finding (Figs 6/7) is that exchange against a tuned
    /// `MPI_ALLTOALL` — and each block is visited in the buffer its
    /// fragments were joined in.
    pub fn alltoall_lend<T: Pod>(
        &self,
        team: &Team,
        slab: Vec<T>,
        block: usize,
        visit: impl FnMut(usize, &[T]),
    ) -> Vec<T> {
        self.collective(team, Some(StatCat::Alltoall), |g| {
            match self.backend.coll_mpi() {
                Some(mpi) => mpi.alltoall_lend(g, slab, block, visit),
                None => coll::alltoall_linear_visit(&self.rounds(g), &slab, block, visit).map(|()| slab),
            }
            .expect("alltoall")
        })
    }

    /// Fortran 2008 `sync images`: pairwise synchronization with each
    /// listed team member. Each partner must execute a matching
    /// `sync_images` naming this image. Unlike a barrier, unlisted images
    /// are not involved.
    ///
    /// Implemented over events with per-source identities, so successive
    /// `sync_images` calls with overlapping partner sets cannot steal one
    /// another's notifications out of order beyond CAF's counting
    /// semantics.
    pub fn sync_images(&self, team: &Team, partners: &[usize]) {
        use crate::event::Event;
        // A reserved, globally agreed event id per source image.
        let sync_ev = |global: usize| Event {
            id: crate::image::derive_token(0x5A11C0DE, global as u64 + 1, 0x5A),
        };
        let me = self.this_image();
        for &p in partners {
            self.event_notify(team, &sync_ev(me), p);
        }
        for &p in partners {
            self.event_wait(&sync_ev(team.global_rank(p)));
        }
    }

    /// Split `team` by color, ordering each part by `(key, rank)` —
    /// CAF 2.0's `team_split`.
    pub fn team_split(&self, team: &Team, color: u64, key: i64) -> Team {
        self.collective(team, None, |g| {
            let group = match self.backend.coll_mpi() {
                Some(mpi) => mpi.comm_split(g, color, key),
                None => g.split(color, key, |triple| coll::allgather(&self.rounds(g), triple)),
            };
            Team { group: group.expect("team_split") }
        })
    }

    /// Shrink `team` to its surviving members — the self-healing analog of
    /// ULFM's `MPI_Comm_shrink` (DESIGN.md §17). Every survivor derives
    /// the *same* child team identity from the parent id and the excluded
    /// set without communication, then the survivors agree with a barrier
    /// on the shrunken team; a failure detected *during* that barrier
    /// restarts the shrink with the enlarged failed set, so the reform
    /// converges even when images keep dying under it (the failed set only
    /// grows). Team-relative ranks are renumbered densely in the parent's
    /// member order.
    ///
    /// Returns the new team and a [`crate::Stat`] reporting every failed
    /// member that was dropped ([`crate::Stat::Ok`] if the team was
    /// already whole).
    ///
    /// # Panics
    ///
    /// Panics if the calling image is itself marked failed (a dead image
    /// cannot reform anything).
    pub fn team_reform(&self, team: &Team) -> (Team, Stat) {
        let mut stat = Stat::Ok;
        loop {
            let failed_in_team: Vec<usize> = {
                let fault = self.backend.fault();
                team.members()
                    .into_iter()
                    .filter(|&r| fault.is_failed(r))
                    .collect()
            };
            stat.merge(&failed_in_team);
            let new_team = Team { group: team.group.shrink(&failed_in_team, self.this_image()) };
            // Agreement round: a barrier over the candidate team. If it
            // reports new deaths, fold them in and re-shrink — survivors
            // whose snapshots disagreed converge here, because a stale
            // candidate still contains a failed member and its barrier
            // cannot succeed.
            match self.barrier_stat(&new_team) {
                s if s.is_ok() => return (new_team, stat),
                s => stat.merge(s.failed()),
            }
        }
    }

    /// Copy one received fragment of the hand-rolled collective message
    /// `key` into its stash entry. The first fragment of a message sizes
    /// the buffer for all `nchunks` (no fragment is longer than
    /// [`GCOLL_CHUNK`]). Kept out of [`Image::handle_msg`], whose event
    /// path is the hot one.
    #[inline(never)]
    pub(crate) fn stash_fragment(&self, key: (u64, u64, u32, u32), nchunks: u32, data: &[u8]) {
        match self.coll_stash.borrow_mut().entry(key) {
            Entry::Vacant(e) if nchunks == 1 => {
                e.insert((0, data.to_vec()));
            }
            Entry::Vacant(e) => {
                let mut bytes = Vec::with_capacity(nchunks as usize * GCOLL_CHUNK);
                bytes.extend_from_slice(data);
                e.insert((nchunks - 1, bytes));
            }
            Entry::Occupied(mut e) => {
                let (missing, bytes) = e.get_mut();
                *missing -= 1;
                bytes.extend_from_slice(data);
            }
        }
    }

    /// The next collective on `t` hand-rolled from AMs (CAF-GASNet).
    /// Fragments still stashed for an earlier one have no consumer left —
    /// a completed collective consumed all of its own, so they belong to
    /// one a failure abandoned — and are dropped here.
    fn rounds<'a>(&'a self, t: &'a Group) -> TeamRounds<'a> {
        let seq = t.next_seq();
        self.coll_stash
            .borrow_mut()
            .retain(|key, _| key.0 != t.id() || key.1 >= seq);
        TeamRounds { img: self, t, seq }
    }
}

#[cfg(test)]
mod tests {
    use crate::image::{both, CafConfig, CafUniverse, SubstrateKind};

    #[test]
    fn barrier_on_both_substrates() {
        both(5, |img| {
            for _ in 0..3 {
                img.sync_all();
            }
        });
    }

    #[test]
    fn broadcast_on_both_substrates() {
        both(6, |img| {
            let w = img.team_world();
            let mut data = if img.this_image() == 2 {
                vec![3.5f64; 10]
            } else {
                Vec::new()
            };
            img.broadcast(&w, 2, &mut data);
            assert_eq!(data, vec![3.5f64; 10]);
        });
    }

    #[test]
    fn allreduce_on_both_substrates() {
        both(7, |img| {
            let w = img.team_world();
            let s = img.allreduce(&w, &[img.this_image() as u64, 1], |a, b| a + b);
            assert_eq!(s, vec![21, 7]);
        });
    }

    #[test]
    fn reduce_on_both_substrates() {
        both(4, |img| {
            let w = img.team_world();
            let r = img.reduce(&w, 1, &[img.this_image() as i64], |a, b| a.max(b));
            if img.this_image() == 1 {
                assert_eq!(r, Some(vec![3]));
            } else {
                assert!(r.is_none());
            }
        });
    }

    #[test]
    fn allgather_on_both_substrates() {
        both(4, |img| {
            let w = img.team_world();
            let all = img.allgather(&w, &[img.this_image() as u32 * 7]);
            assert_eq!(all, vec![0, 7, 14, 21]);
        });
    }

    /// The sweep of `caf-mpisim`'s
    /// `allgather_family_at_every_size_in_both_exec_modes`, through the
    /// portable layer: non-powers of two are where a Bruck rotation goes
    /// wrong. Both substrates run `caf_fabric::coll::allgather`; the sweep
    /// covers the two transports it runs over (collective packets, chunked
    /// runtime AMs) and the split grouping built on it.
    #[test]
    #[cfg_attr(miri, ignore = "launches 160 jobs of up to 33 images")]
    fn allgather_family_at_every_size_on_both_substrates_and_exec_modes() {
        use crate::ExecConfig;

        let tasks = ExecConfig { workers: 2, ..ExecConfig::tasks() };
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for exec in [ExecConfig::default(), tasks] {
                for n in (1usize..=17).chain([31, 32, 33]) {
                    let mut cfg = CafConfig { exec, ..CafConfig::on(kind) };
                    // 33 default 4 MiB segments are 132 MiB nobody touches.
                    cfg.gasnet.segment_size = 64 << 10;
                    CafUniverse::run_with_config(n, cfg, |img| {
                        let (w, me) = (img.team_world(), img.this_image() as u64);
                        let what = format!("{kind:?} {:?} n={n} image={me}", exec.mode);

                        let ones = img.allgather(&w, &[me * 7]);
                        assert_eq!(ones, (0..n as u64).map(|r| r * 7).collect::<Vec<_>>(), "{what}");
                        let threes = img.allgather(&w, &[me, me + 100, me + 200]);
                        let expect: Vec<u64> =
                            (0..n as u64).flat_map(|r| [r, r + 100, r + 200]).collect();
                        assert_eq!(threes, expect, "{what}");

                        // Image r contributes r % 4 elements (some none).
                        let ragged = img.allgatherv(&w, &vec![me; me as usize % 4]);
                        let expect: Vec<u64> = (0..n as u64)
                            .flat_map(|r| std::iter::repeat_n(r, r as usize % 4))
                            .collect();
                        assert_eq!(ragged, expect, "{what}");

                        // Three colours, keys reversing the image order.
                        let sub = img.team_split(&w, me % 3, -(me as i64));
                        let peers: Vec<usize> =
                            (0..n).rev().filter(|r| r % 3 == me as usize % 3).collect();
                        assert_eq!(sub.members(), peers, "{what}");
                        assert_eq!(sub.global_rank(sub.rank()), me as usize, "{what}");
                    });
                }
            }
        }
    }

    #[test]
    fn allgatherv_on_both_substrates() {
        both(4, |img| {
            let w = img.team_world();
            let mine = vec![img.this_image() as u64 * 5; img.this_image()];
            let all = img.allgatherv(&w, &mine);
            let mut expect = Vec::new();
            for r in 0..4u64 {
                expect.extend(std::iter::repeat_n(r * 5, r as usize));
            }
            assert_eq!(all, expect);
        });
    }

    #[test]
    fn alltoall_on_both_substrates() {
        both(4, |img| {
            let w = img.team_world();
            let me = img.this_image();
            let send: Vec<u64> = (0..4).map(|d| (me * 10 + d) as u64).collect();
            let recv = img.alltoall(&w, &send, 1);
            let expect: Vec<u64> = (0..4).map(|s| (s * 10 + me) as u64).collect();
            assert_eq!(recv, expect);
        });
    }

    #[test]
    fn large_payload_alltoall_chunks_on_gasnet() {
        // Blocks well above the medium-AM limit force fragmentation.
        CafUniverse::run_with_config(
            3,
            CafConfig::on(SubstrateKind::Gasnet),
            |img| {
                let w = img.team_world();
                let me = img.this_image();
                let block = 3000; // 24 KB per block in f64
                let send: Vec<f64> = (0..3 * block)
                    .map(|i| (me * 1_000_000 + i) as f64)
                    .collect();
                let recv = img.alltoall(&w, &send, block);
                for s in 0..3usize {
                    for i in 0..block {
                        assert_eq!(
                            recv[s * block + i],
                            (s * 1_000_000 + me * block + i) as f64
                        );
                    }
                }
            },
        );
    }

    #[test]
    fn team_split_on_both_substrates() {
        both(8, |img| {
            let w = img.team_world();
            let color = (img.this_image() % 2) as u64;
            let sub = img.team_split(&w, color, img.this_image() as i64);
            assert_eq!(sub.size(), 4);
            assert_eq!(sub.rank(), img.this_image() / 2);
            let s = img.allreduce(&sub, &[img.this_image() as u64], |a, b| a + b);
            assert_eq!(s[0], if color == 0 { 12 } else { 16 });
        });
    }

    #[test]
    fn sync_images_pairs_only() {
        both(4, |img| {
            let w = img.team_world();
            let me = img.this_image();
            // Partner with the image whose index differs in bit 0.
            let partner = me ^ 1;
            for _ in 0..5 {
                img.sync_images(&w, &[partner]);
            }
            img.sync_all();
        });
    }

    #[test]
    fn sync_images_with_multiple_partners() {
        both(4, |img| {
            let w = img.team_world();
            let me = img.this_image();
            // Everyone syncs with both ring neighbours.
            let l = (me + 3) % 4;
            let r = (me + 1) % 4;
            for _ in 0..3 {
                img.sync_images(&w, &[l, r]);
            }
            img.sync_all();
        });
    }

    /// Every member of a `team_split` child, and every survivor of a
    /// `team_reform` after a planned kill, reports the same team id on
    /// both substrates; sibling colours get different ids.
    #[test]
    fn split_and_reformed_teams_agree_on_their_ids() {
        use caf_fabric::{FaultPlan, KillSite};
        use std::collections::BTreeSet;

        const VICTIM: usize = 4;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let cfg = CafConfig {
                fault: FaultPlan::kill(VICTIM, KillSite::Op { name: "finish", hits: 1 }),
                ..CafConfig::on(kind)
            };
            let out = CafUniverse::run_with_config_ft(6, cfg, |img| {
                let (w, me) = (img.team_world(), img.this_image());
                let left = img.event_alloc(&w);
                let color = me as u64 % 3;
                let split = img.team_split(&w, color, 0).id();
                // The victim dies entering the finish, once every other
                // image has left the split: a collective still running
                // when a member dies fails fast.
                if me == VICTIM {
                    (1..6).for_each(|_| img.event_wait(&left));
                } else {
                    img.event_notify(&w, &left, VICTIM);
                }
                let ((), stat) = img.finish_stat(&w, |_| ());
                assert_eq!(stat.failed(), &[VICTIM], "{kind:?} image {me}");
                let (reformed, _) = img.team_reform(&w);
                let resplit = img.team_split(&reformed, color, 0).id();
                (color, split, reformed.id(), resplit)
            });
            let survivors: Vec<_> = out.iter().flatten().collect();
            assert_eq!(survivors.len(), 5, "{kind:?}: only the victim dies");
            for (c, split, reformed, resplit) in &survivors {
                for (c2, split2, reformed2, resplit2) in &survivors {
                    assert_eq!(c == c2, split == split2, "{kind:?}: split ids");
                    assert_eq!(c == c2, resplit == resplit2, "{kind:?}: split-after-reform ids");
                    assert_eq!(reformed, reformed2, "{kind:?}: reformed ids");
                }
            }
            let ids: BTreeSet<u64> =
                survivors.iter().flat_map(|&&(_, s, r, rs)| [0, s, r, rs]).collect();
            assert_eq!(ids.len(), 1 + 3 + 1 + 3, "{kind:?}: world, 3 splits, reform, 3 resplits");
        }
    }

    #[test]
    fn nested_team_split() {
        both(8, |img| {
            let w = img.team_world();
            let half = img.team_split(&w, (img.this_image() / 4) as u64, 0);
            let quarter = img.team_split(&half, (half.rank() / 2) as u64, 0);
            assert_eq!(quarter.size(), 2);
            img.barrier(&quarter);
            img.barrier(&half);
            img.sync_all();
        });
    }
}
