//! Events — CAF 2.0's pair-wise synchronization primitive (paper §2.1,
//! §3.4).
//!
//! Events are counting: each `event_notify` adds one post, each
//! `event_wait` consumes one. The runtime implements them over its AM
//! layer — the paper's chosen design ("CAF-MPI used the second method",
//! `MPI_ISEND` to notify and a blocking receive poll to wait, because
//! two-sided performance was better tuned than `MPI_FETCH_AND_OP` polling).
//!
//! The expensive part is the semantics of `event_notify`: the target may
//! only observe the notification after **all previous operations issued by
//! the notifying image are complete at their targets**. On CAF-MPI that
//! means a release barrier (`MPI_WAITALL` over pending requests) plus
//! `MPI_WIN_FLUSH_ALL` — which MPICH derivatives implement by flushing
//! every rank, Θ(P). The RandomAccess decomposition (Figure 4) is the
//! visible consequence, and this runtime reproduces it structurally.

use caf_mpisim::FlushRequest;

use crate::backend::{Backend, FlushMode, FALLBACK_FRACTION};
use crate::coarray::On;
use crate::image::Image;
use crate::op::{CafOp, Chan};
use crate::rtmsg::notify_frame;
use crate::stat::Stat;
use crate::stats::StatCat;
use crate::team::Team;

/// A CAF event. Every image of the allocating team holds one instance;
/// `notify` posts a *specific image's* instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub(crate) id: u64,
}

impl Event {
    /// The collectively agreed event identity.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Image {
    /// Collectively create an event over `team` (`event_init`). Every
    /// member must call this in the same order relative to other
    /// collective id-creating calls on the team.
    pub fn event_alloc(&self, team: &Team) -> Event {
        Event {
            id: self.next_team_token(team, 0xEE),
        }
    }

    /// Post `ev` at team member `target` (`event_notify`).
    ///
    /// Completes all previously issued operations first (release
    /// semantics); the notification itself is nonblocking (`MPI_ISEND`) to
    /// avoid deadlock in circular notify/wait chains (paper §3.4).
    pub fn event_notify(&self, team: &Team, ev: &Event, target: usize) {
        self.fault_point("event_notify");
        let target = team.global_rank(target);
        let op = CafOp {
            target: Some(target),
            word: Some(ev.id),
            ..CafOp::of(Some(StatCat::EventNotify))
        };
        self.op(op, || {
            // Release barrier: local completion of implicitly synchronized
            // asynchronous operations, then remote completion — flush_all
            // (Θ(P) per window on the MPI substrate) or the configured
            // targeted/rflush policy.
            // Coalesced small puts leave their buckets first: each drained
            // bucket is one batched AM, so aggregation adds zero per-target
            // flush handshakes below — O(drained buckets) messages, never
            // O(records) flush work. FIFO order on the AM channel then
            // applies the batch before the notification itself.
            self.agg_drain_for_release();
            self.release_all();
            self.post_event(ev.id, target);
        });
    }

    /// Post `event_id` at global image `target`: locally when that is
    /// this image (short-circuiting the AM layer), as an
    /// [`crate::rtmsg::RtMsg::EventNotify`] otherwise. The poster's causal
    /// past must be visible to the waiter, so this is the send edge the
    /// sanitizer pairs with the consuming wait — posts pair FIFO with
    /// consumers, not with message delivery (which posts through
    /// [`Image::post_event_local`] on behalf of a sender that already
    /// recorded its edge).
    pub(crate) fn post_event(&self, event_id: u64, target: usize) {
        self.op(CafOp::send(Chan::Event, event_id, target), || {
            if target == self.this_image() {
                self.post_event_local(event_id);
            } else {
                self.backend.send_rtmsg(target, &notify_frame(event_id));
            }
        });
    }

    /// Block until `ev` has been posted at this image, then consume one
    /// post (`event_wait`). The blocking poll drives runtime progress:
    /// shipped functions and other events arriving meanwhile are handled.
    ///
    /// # Panics
    ///
    /// Panics when any image has failed (an event can be posted by any
    /// image); [`Image::event_wait_stat`] reports it instead.
    pub fn event_wait(&self, ev: &Event) {
        self.event_wait_stat(ev).expect_ok("event_wait");
    }

    /// As [`Image::event_wait`], with a failure screen: returns
    /// [`crate::Stat::FailedImage`] instead of blocking forever once any
    /// image has failed. The watch set is the whole job — an event can be
    /// posted by any image, so any failure makes the wait unfulfillable
    /// in general; callers that know the poster survived can simply call
    /// again after reforming their team.
    pub fn event_wait_stat(&self, ev: &Event) -> Stat {
        self.op(Self::wait_op(ev), || loop {
            if self.take_post(ev.id) {
                return Stat::Ok;
            }
            match self.backend.recv_rtmsg_blocking_stat(caf_fabric::Watch::All) {
                Ok(frame) => self.handle_msg(&frame),
                Err(e) => return self.stat_failed(e),
            }
        })
    }

    /// Nonblocking test: consume one post if available (`event_trywait`).
    pub fn event_trywait(&self, ev: &Event) -> bool {
        self.op(Self::wait_op(ev), || {
            self.poll();
            self.take_post(ev.id)
        })
    }

    fn wait_op(ev: &Event) -> CafOp {
        CafOp {
            word: Some(ev.id),
            ..CafOp::of(Some(StatCat::EventWait))
        }
    }

    /// Number of unconsumed posts currently visible at this image.
    pub fn event_pending(&self, ev: &Event) -> u64 {
        self.poll();
        *self.events.borrow().get(&ev.id).unwrap_or(&0)
    }

    /// Consume one post of event `id` if there is one — the receive edge
    /// of the oldest unconsumed post towards this image.
    fn take_post(&self, id: u64) -> bool {
        match self.events.borrow_mut().get_mut(&id) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return false,
        }
        self.edge(CafOp::recv(Chan::Event, id));
        true
    }

    /// The release barrier of `event_notify`/`finish`: local completion of
    /// implicitly synchronized asynchronous operations, then remote
    /// completion of everything outstanding under the configured
    /// [`crate::backend::FlushMode`].
    ///
    /// In `Rflush` mode the per-target flushes are *issued first* so that
    /// their modeled latency overlaps the local release work (the paper's
    /// §5 `MPI_WIN_RFLUSH` overlap), and waited after it.
    pub(crate) fn release_all(&self) {
        let reqs = self.flush_walk(true);
        self.complete_implicit_local();
        for r in reqs {
            r.wait();
        }
    }

    /// Complete all outstanding one-sided operations to every target, on
    /// every region this image holds: a release with no local work to
    /// overlap, so `Rflush` flushes as `Targeted` does.
    pub(crate) fn flush_all(&self) {
        self.flush_walk(false);
    }

    /// The one walk behind [`Image::release_all`] and [`Image::flush_all`].
    ///
    /// * MPI, over the region table's windows in id order: under
    ///   [`FlushMode::All`], `MPI_Win_flush_all` per window — each one
    ///   Θ(P) in MPICH derivatives, the root cause of CAF-MPI's
    ///   `event_notify` cost (paper §4.1) — without computing the dirty
    ///   set. Under the targeted modes (§5), a `MPI_Win_flush` per dirty
    ///   target, or with `overlap` in `Rflush` mode a `MPI_Win_rflush`
    ///   whose request is returned for the caller to wait after its local
    ///   work; a window past [`FALLBACK_FRACTION`] dirty is flushed whole.
    /// * GASNet: `gasnet_wait_syncnbi_puts` — a local operation; GASNet
    ///   puts are remotely complete at sync.
    fn flush_walk(&self, overlap: bool) -> Vec<FlushRequest> {
        if let Backend::Gasnet(b) = &self.backend {
            b.g.wait_syncnbi_puts();
            return Vec::new();
        }
        let mut reqs = Vec::new();
        for region in self.regions.borrow().values() {
            let On::Mpi(b, win) = region.on(&self.backend) else { unreachable!() };
            if b.flush == FlushMode::All {
                b.mpi.win_flush_all(win).expect("flush_all");
                continue;
            }
            let dirty = win.dirty_targets();
            if dirty.len() as f64 > FALLBACK_FRACTION * win.comm().size() as f64 {
                b.mpi.win_flush_all(win).expect("flush_all fallback");
                continue;
            }
            for target in dirty {
                if overlap && b.flush == FlushMode::Rflush {
                    reqs.push(b.mpi.win_rflush(win, target).expect("rflush issue"));
                } else {
                    b.mpi.win_flush(win, target).expect("targeted flush");
                }
            }
        }
        reqs
    }

    /// Local completion of implicitly synchronized async operations (the
    /// release-barrier `MPI_WAITALL` of paper §3.4). On this substrate the
    /// requests are already complete; the counter is consumed so
    /// `cofence` semantics stay observable.
    pub(crate) fn complete_implicit_local(&self) {
        self.implicit_puts.set(0);
    }
}

#[cfg(test)]
mod tests {
    use crate::image::{both, CafConfig, CafUniverse, SubstrateKind};

    #[test]
    fn notify_then_wait() {
        both(2, |img| {
            let w = img.team_world();
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                img.event_notify(&w, &ev, 1);
            } else {
                img.event_wait(&ev);
            }
            img.sync_all();
        });
    }

    #[test]
    fn posts_are_counted() {
        both(2, |img| {
            let w = img.team_world();
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                for _ in 0..3 {
                    img.event_notify(&w, &ev, 1);
                }
                img.sync_all();
            } else {
                img.sync_all();
                // All three posts must be waitable.
                img.event_wait(&ev);
                img.event_wait(&ev);
                img.event_wait(&ev);
                assert!(!img.event_trywait(&ev));
            }
        });
    }

    /// A runtime message drained by `poll` is charged as a receive: one
    /// `P2pReceive` each on CAF-MPI (as a blocking `recv` charges), one
    /// `AmDispatch` each on CAF-GASNet.
    #[test]
    fn polled_notifies_are_charged_as_receives() {
        use caf_fabric::DelayOp;
        use std::sync::atomic::{AtomicBool, Ordering};
        const N: u64 = 5;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let (sent, drained) = (AtomicBool::new(false), AtomicBool::new(false));
            let wait_for = |flag: &AtomicBool| {
                // No polling while waiting: the drain below is the one
                // that receives every notify, and nothing else.
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            };
            CafUniverse::run_with_config(2, CafConfig::on(kind), |img| {
                let w = img.team_world();
                let ev = img.event_alloc(&w);
                img.sync_all();
                if img.this_image() == 1 {
                    for _ in 0..N {
                        img.event_notify(&w, &ev, 0);
                    }
                    sent.store(true, Ordering::Release);
                    wait_for(&drained);
                } else {
                    wait_for(&sent);
                    let charged = |op| {
                        img.delay_meter_snapshot()
                            .into_iter()
                            .find_map(|(o, count, _)| (o == op).then_some(count))
                            .expect("the meter has a row per op")
                    };
                    let op = match kind {
                        SubstrateKind::Mpi => DelayOp::P2pReceive,
                        SubstrateKind::Gasnet => DelayOp::AmDispatch,
                    };
                    let before = charged(op);
                    img.poll();
                    let after = charged(op);
                    drained.store(true, Ordering::Release);
                    assert_eq!(after - before, N, "{kind:?}: {op:?} per polled notify");
                    for _ in 0..N {
                        img.event_wait(&ev);
                    }
                }
                img.sync_all();
            });
        }
    }

    #[test]
    fn trywait_is_nonblocking() {
        both(2, |img| {
            let w = img.team_world();
            let ev = img.event_alloc(&w);
            if img.this_image() == 1 {
                assert!(!img.event_trywait(&ev));
            }
            img.sync_all();
            if img.this_image() == 0 {
                img.event_notify(&w, &ev, 1);
            }
            img.sync_all();
            if img.this_image() == 1 {
                assert!(img.event_trywait(&ev));
            }
        });
    }

    #[test]
    fn notify_makes_prior_writes_visible() {
        // The release semantics: a coarray write issued before
        // event_notify must be visible to the waiter when it wakes.
        both(2, |img| {
            let w = img.team_world();
            let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&w, 1);
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                ca.write(img, 1, 0, &[7777]);
                img.event_notify(&w, &ev, 1);
            } else {
                img.event_wait(&ev);
                assert_eq!(ca.local_vec(img)[0], 7777);
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn target_only_flush_still_releases_writes_to_target() {
        // The §5 per-target flush is sufficient when the guarded writes go
        // to the notified image — the RandomAccess pattern: the notify
        // flushes that one rank and nothing else.
        use caf_fabric::DelayOp::FlushPerTarget;
        let cfg = CafConfig {
            flush: crate::backend::FlushMode::Targeted,
            ..CafConfig::on(SubstrateKind::Mpi)
        };
        CafUniverse::run_with_config(3, cfg, |img| {
            let w = img.team_world();
            let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&w, 1);
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                let flushes = || {
                    let meter = img.delay_meter_snapshot();
                    meter.iter().find(|m| m.0 == FlushPerTarget).map_or(0, |m| m.1)
                };
                img.copy_async_put(&ca, 1, 0, &[4242], crate::asyncops::AsyncOpts::none());
                let before = flushes();
                img.event_notify(&w, &ev, 1);
                assert_eq!(flushes() - before, 1);
            } else if img.this_image() == 1 {
                img.event_wait(&ev);
                assert_eq!(ca.local_vec(img)[0], 4242);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn targeted_and_rflush_modes_release_writes_on_notify() {
        // The §5 fixes must preserve release semantics: an async put issued
        // before event_notify is visible to the waiter under every flush
        // mode, on both substrates (GASNet ignores the MPI-only knob).
        use crate::backend::FlushMode;
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            for flush in [FlushMode::Targeted, FlushMode::Rflush] {
                let cfg = CafConfig {
                    flush,
                    ..CafConfig::on(kind)
                };
                CafUniverse::run_with_config(3, cfg, |img| {
                    let w = img.team_world();
                    let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&w, 1);
                    let ev = img.event_alloc(&w);
                    if img.this_image() == 0 {
                        img.copy_async_put(
                            &ca,
                            2,
                            0,
                            &[9001],
                            crate::asyncops::AsyncOpts::none(),
                        );
                        img.event_notify(&w, &ev, 2);
                    } else if img.this_image() == 2 {
                        img.event_wait(&ev);
                        assert_eq!(ca.local_vec(img)[0], 9001);
                    }
                    img.sync_all();
                    img.coarray_free(&w, ca);
                });
            }
        }
    }

    #[test]
    fn targeted_mode_falls_back_when_most_ranks_dirty() {
        // With every rank dirty the 50% threshold forces the flush_all
        // fallback; correctness must be identical.
        use crate::backend::FlushMode;
        let cfg = CafConfig {
            flush: FlushMode::Targeted,
            ..CafConfig::on(SubstrateKind::Mpi)
        };
        CafUniverse::run_with_config(4, cfg, |img| {
            let w = img.team_world();
            let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&w, 4);
            let ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                for peer in 1..4 {
                    img.copy_async_put(
                        &ca,
                        peer,
                        0,
                        &[peer as u64],
                        crate::asyncops::AsyncOpts::none(),
                    );
                }
                for peer in 1..4 {
                    img.event_notify(&w, &ev, peer);
                }
            } else {
                img.event_wait(&ev);
                assert_eq!(ca.local_vec(img)[0], img.this_image() as u64);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn targeted_flush_maps_team_relative_ranks_to_world() {
        // Dirty targets are comm-relative; notify on a sub-team must still
        // flush the right world rank. Team {1,3} of a 4-image world: team
        // rank 1 is world rank 3.
        use crate::backend::FlushMode;
        for flush in [FlushMode::Targeted, FlushMode::Rflush] {
            let cfg = CafConfig {
                flush,
                ..CafConfig::on(SubstrateKind::Mpi)
            };
            CafUniverse::run_with_config(4, cfg, |img| {
                let w = img.team_world();
                let me = img.this_image();
                let odd = img.team_split(&w, (me % 2) as u64, (me / 2) as i64);
                let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&odd, 1);
                let ev = img.event_alloc(&odd);
                if me % 2 == 1 {
                    if odd.rank() == 0 {
                        // World image 1 writes team-rank 1 (= world 3).
                        img.copy_async_put(
                            &ca,
                            1,
                            0,
                            &[777],
                            crate::asyncops::AsyncOpts::none(),
                        );
                        img.event_notify(&odd, &ev, 1);
                    } else {
                        img.event_wait(&ev);
                        assert_eq!(ca.local_vec(img)[0], 777);
                    }
                }
                img.sync_all();
                img.coarray_free(&odd, ca);
            });
        }
    }

    #[test]
    fn finish_completes_puts_under_all_flush_modes() {
        use crate::backend::FlushMode;
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            let cfg = CafConfig {
                flush,
                ..CafConfig::on(SubstrateKind::Mpi)
            };
            CafUniverse::run_with_config(4, cfg, |img| {
                let w = img.team_world();
                let ca: crate::coarray::Coarray<u64> = img.coarray_alloc(&w, 1);
                img.finish(&w, |img| {
                    let peer = (img.this_image() + 1) % 4;
                    img.copy_async_put(
                        &ca,
                        peer,
                        0,
                        &[img.this_image() as u64 + 10],
                        crate::asyncops::AsyncOpts::none(),
                    );
                });
                let writer = (img.this_image() + 3) % 4;
                assert_eq!(ca.local_vec(img)[0], writer as u64 + 10);
                img.coarray_free(&w, ca);
            });
        }
    }

    #[test]
    fn self_notify_works() {
        both(1, |img| {
            let w = img.team_world();
            let ev = img.event_alloc(&w);
            img.event_notify(&w, &ev, 0);
            img.event_wait(&ev);
        });
    }

    #[test]
    fn distinct_events_do_not_interfere() {
        both(2, |img| {
            let w = img.team_world();
            let a = img.event_alloc(&w);
            let b = img.event_alloc(&w);
            assert_ne!(a.id(), b.id());
            if img.this_image() == 0 {
                img.event_notify(&w, &b, 1);
                img.sync_all();
            } else {
                img.sync_all();
                assert!(!img.event_trywait(&a));
                assert!(img.event_trywait(&b));
            }
        });
    }

    #[test]
    fn ping_pong_chain() {
        both(2, |img| {
            let w = img.team_world();
            let ping = img.event_alloc(&w);
            let pong = img.event_alloc(&w);
            for _ in 0..10 {
                if img.this_image() == 0 {
                    img.event_notify(&w, &ping, 1);
                    img.event_wait(&pong);
                } else {
                    img.event_wait(&ping);
                    img.event_notify(&w, &pong, 0);
                }
            }
        });
    }
}
