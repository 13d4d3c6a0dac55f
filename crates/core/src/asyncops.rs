//! Asynchronous operations: `copy_async`, asynchronous collectives, and
//! `cofence` (paper §2.1, §3.3, §3.5).
//!
//! The heart of this module is the four-way mapping the paper derives from
//! MPI-3's completion semantics (§3.3):
//!
//! 1. no completion events requested → plain `MPI_PUT`/`MPI_GET`,
//!    implicitly synchronized (completed by the next `cofence`/`finish`);
//! 2. events on a GET-style copy → `MPI_RGET`, whose request certifies
//!    local *and* remote completion;
//! 3. only a *source* (local-completion) event on a PUT-style copy →
//!    `MPI_RPUT`, whose request certifies local completion;
//! 4. a *destination* (remote-completion) event on a PUT-style copy →
//!    **active messages**: MPI-3 has no way to observe remote completion
//!    of a put, so the data travels in an AM and the target posts the
//!    event after copying it in. "Obviously not as efficient… but it
//!    provides the necessary functionality."
//!
//! On the GASNet substrate puts are remotely complete at sync, so case 4
//! becomes put + notify — one of the baseline's structural advantages.

use caf_fabric::pod::as_bytes;
use caf_fabric::Pod;

use crate::backend::Backend;
use crate::coarray::{Coarray, On};
use crate::event::Event;
use crate::image::Image;
use crate::op::{CafOp, Chan, Edge};
use crate::rtmsg::put_with_event_frame;
use crate::stats::StatCat;
use crate::team::Team;

/// The issue path of an asynchronous copy.
const COPY_ASYNC: CafOp = CafOp::of(Some(StatCat::CopyAsync));

/// Optional event arguments of an asynchronous operation (paper §2.1):
/// the *predicate* gates the start, the *source* event signals the source
/// buffer is reusable, the *destination* event signals delivery.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncOpts {
    /// Start only after this event is posted locally.
    pub predicate: Option<Event>,
    /// Post (locally) when the source buffer is reusable.
    pub src_event: Option<Event>,
    /// Post (at the destination image) when the data has been delivered.
    pub dst_event: Option<Event>,
}

impl AsyncOpts {
    /// No events: implicit synchronization (case 1).
    pub fn none() -> Self {
        Self::default()
    }

    /// Only a source (local-completion) event (case 3).
    pub fn with_src(ev: Event) -> Self {
        AsyncOpts {
            src_event: Some(ev),
            ..Self::default()
        }
    }

    /// A destination (remote-completion) event (case 4).
    pub fn with_dst(ev: Event) -> Self {
        AsyncOpts {
            dst_event: Some(ev),
            ..Self::default()
        }
    }
}

impl Image {
    /// Asynchronous PUT-style copy: local `data` into `member`'s part of
    /// the coarray at element offset `elem_off`.
    pub fn copy_async_put<T: Pod>(
        &self,
        ca: &Coarray<T>,
        member: usize,
        elem_off: usize,
        data: &[T],
        opts: AsyncOpts,
    ) {
        if let Some(pred) = self.unposted_predicate(opts) {
            // Defer the whole operation until the predicate fires.
            let (ca, data, rest) = (ca.clone(), data.to_vec(), AsyncOpts { predicate: None, ..opts });
            return self.defer(pred, move |img| img.copy_async_put(&ca, member, elem_off, &data, rest));
        }
        self.op(COPY_ASYNC, || {
            self.put_with_events(ca, member, elem_off, data, opts.src_event, opts.dst_event);
        });
    }

    /// The id of `opts`' predicate event while it has no post at this
    /// image (observed by polling: no post is consumed, no edge created).
    fn unposted_predicate(&self, opts: AsyncOpts) -> Option<u64> {
        let id = opts.predicate?.id;
        let posted = *self.events.borrow().get(&id).unwrap_or(&0) > 0;
        (!posted).then_some(id)
    }

    /// Park `op` until event `id` is posted here.
    fn defer(&self, id: u64, op: impl FnOnce(&Image) + 'static) {
        self.deferred.borrow_mut().push((id, Box::new(op)));
    }

    fn put_with_events<T: Pod>(
        &self,
        ca: &Coarray<T>,
        member: usize,
        elem_off: usize,
        data: &[T],
        src_event: Option<Event>,
        dst_event: Option<Event>,
    ) {
        let disp = elem_off * std::mem::size_of::<T>();
        let target = ca.global_member(member);
        let me = self.this_image();
        let post_src = || self.post_here([src_event, None]);
        let op = ca.data_op(None, target, disp, data.len(), Edge::Write);
        ca.access(self, op, |on| {
            // Cases 1 and 3 (no remote-completion event) may coalesce into
            // an aggregation bucket: the record travels in a batched AM at
            // the next drain, which is never later than the direct put's
            // release point, so implicit-synchronization semantics are
            // unchanged. The payload is copied into the record, so local
            // completion — all a source event certifies — is immediate.
            if dst_event.is_none() && self.agg_try_put(ca.region.id(), target, disp, as_bytes(data)) {
                return post_src();
            }
            match on {
                On::Mpi(b, win) => match dst_event {
                    // Case 3: MPI_RPUT — local completion only.
                    None if src_event.is_some() => {
                        b.mpi.rput(win, member, disp, data).expect("rput").wait();
                    }
                    // Case 1: plain MPI_PUT, implicitly synchronized.
                    None => {
                        b.mpi.put(win, member, disp, data).expect("put");
                        self.implicit_puts.set(self.implicit_puts.get() + 1);
                    }
                    // Case 4: remote-completion event requested — the data
                    // must travel by AM so the target can post the event
                    // after delivery.
                    Some(dst) if target == me => {
                        b.mpi.win_write_local(win, disp, data).expect("self put");
                        self.post_event(dst.id, me);
                    }
                    Some(dst) => self.op(CafOp::send(Chan::Event, dst.id, target), || {
                        let frame =
                            put_with_event_frame(win.id(), disp as u64, dst.id, as_bytes(data));
                        self.backend.send_rtmsg(target, &frame);
                    }),
                },
                On::Gasnet(bg, r) => {
                    // GASNet puts are remotely complete at sync; a
                    // destination event is just put + notify.
                    let (node, addr) = r.at(member, disp);
                    bg.g.put_nbi(node, addr, data).expect("put_nbi");
                    self.implicit_puts.set(self.implicit_puts.get() + 1);
                    if let Some(dst) = dst_event {
                        bg.g.wait_syncnbi_puts();
                        self.post_event(dst.id, target);
                    }
                }
            }
            // The source buffer was consumed synchronously on this
            // substrate; its event can post immediately (local completion).
            post_src();
        });
    }

    /// Asynchronous GET-style copy: fetch `len` elements from `member`'s
    /// part into a fresh vector. Case 2 of the mapping: the request
    /// certifies local and remote completion, so both events (if any) post
    /// at return.
    pub fn copy_async_get<T: Pod>(
        &self,
        ca: &Coarray<T>,
        member: usize,
        elem_off: usize,
        len: usize,
        opts: AsyncOpts,
    ) -> Vec<T> {
        self.op(COPY_ASYNC, || {
            let mut out = crate::zeroed_vec::<T>(len);
            let disp = elem_off * std::mem::size_of::<T>();
            let owner = ca.global_member(member);
            let op = ca.data_op(None, owner, disp, len, Edge::Read);
            ca.access(self, op, |on| match on {
                On::Mpi(b, win) => {
                    out = b.mpi.rget::<T>(win, member, disp, len).expect("rget").wait();
                }
                On::Gasnet(bg, r) => {
                    let (node, addr) = r.at(member, disp);
                    bg.g.get(node, addr, &mut out).expect("get");
                }
            });
            self.post_here([opts.src_event, opts.dst_event]);
            out
        })
    }

    /// Post each requested completion event at this image.
    fn post_here(&self, events: [Option<Event>; 2]) {
        for ev in events.into_iter().flatten() {
            self.post_event(ev.id, self.this_image());
        }
    }

    /// `cofence`: block until all implicitly synchronized asynchronous
    /// operations issued before it are locally complete (their buffers are
    /// reusable). Also a compiler barrier in CAF; in Rust the borrow rules
    /// already prevent reordering observable here.
    pub fn cofence(&self) {
        match &self.backend {
            Backend::Mpi(_) => {
                // MPI_WAITALL over the tracked request arrays (paper §3.5);
                // requests on this substrate are complete at issue.
            }
            Backend::Gasnet(b) => b.g.wait_syncnbi_all(),
        }
        self.complete_implicit_local();
    }

    /// `cofence` with a completion event (paper §3.5: "the cofence
    /// statement takes an optional argument that a user can use to request
    /// local completion notification of PUT or GET operations"): completes
    /// the implicit lists and posts `ev` locally.
    pub fn cofence_with_event(&self, ev: &Event) {
        self.cofence();
        self.post_event(ev.id, self.this_image());
    }

    /// General asynchronous copy between two coarray locations, either or
    /// both remote (`copy_async` with coarray source *and* destination —
    /// the full generality of paper §2.1: "the source and destination may
    /// be local or remote coarrays"). Composed of a GET-style fetch and a
    /// PUT-style store; events follow the §3.3 mapping of the store side.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_async_between<T: Pod>(
        &self,
        src: &Coarray<T>,
        src_member: usize,
        src_off: usize,
        dst: &Coarray<T>,
        dst_member: usize,
        dst_off: usize,
        len: usize,
        opts: AsyncOpts,
    ) {
        if let Some(pred) = self.unposted_predicate(opts) {
            let (src, dst, rest) = (src.clone(), dst.clone(), AsyncOpts { predicate: None, ..opts });
            return self.defer(pred, move |img| {
                img.copy_async_between(&src, src_member, src_off, &dst, dst_member, dst_off, len, rest);
            });
        }
        // Fetch (local+remote complete at return: case 2)...
        let data = self.copy_async_get(src, src_member, src_off, len, AsyncOpts::none());
        // ...then store with the requested completion events (cases 1/3/4).
        self.put_with_events(
            dst,
            dst_member,
            dst_off,
            &data,
            opts.src_event,
            opts.dst_event,
        );
    }

    /// Asynchronous team broadcast, with the async-collective event
    /// convention of paper §2.1.
    pub fn team_broadcast_async<T: Pod>(
        &self,
        team: &Team,
        root: usize,
        data: &mut Vec<T>,
        data_event: Option<Event>,
        op_event: Option<Event>,
    ) {
        self.broadcast(team, root, data);
        self.post_here([data_event, op_event]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::both;

    #[test]
    fn case1_implicit_put_completed_by_cofence_and_barrier() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 2);
            if img.this_image() == 0 {
                img.copy_async_put(&ca, 1, 0, &[42, 43], AsyncOpts::none());
                assert_eq!(img.implicit_puts.get(), 1);
                img.cofence();
                assert_eq!(img.implicit_puts.get(), 0);
                img.flush_all();
            }
            img.sync_all();
            if img.this_image() == 1 {
                assert_eq!(ca.local_vec(img), vec![42, 43]);
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn case3_src_event_posts_locally() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let src_ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                img.copy_async_put(&ca, 1, 0, &[5], AsyncOpts::with_src(src_ev));
                // Local completion: the source event must be waitable here.
                img.event_wait(&src_ev);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn case4_dst_event_posts_at_destination_after_delivery() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let dst_ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                img.copy_async_put(&ca, 1, 0, &[1234], AsyncOpts::with_dst(dst_ev));
            } else {
                img.event_wait(&dst_ev);
                // Data must be there once the event fires.
                assert_eq!(ca.local_vec(img)[0], 1234);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn case2_get_posts_both_events() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let a = img.event_alloc(&w);
            let b = img.event_alloc(&w);
            ca.local_write(img, 0, &[img.this_image() as u64 + 10]);
            img.sync_all();
            let peer = 1 - img.this_image();
            let got = img.copy_async_get(
                &ca,
                peer,
                0,
                1,
                AsyncOpts {
                    predicate: None,
                    src_event: Some(a),
                    dst_event: Some(b),
                },
            );
            assert_eq!(got[0], peer as u64 + 10);
            img.event_wait(&a);
            img.event_wait(&b);
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn predicate_defers_until_event() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let pred = img.event_alloc(&w);
            let dst = img.event_alloc(&w);
            if img.this_image() == 0 {
                // Issue the copy gated on `pred` — it must NOT run yet.
                img.copy_async_put(
                    &ca,
                    1,
                    0,
                    &[99],
                    AsyncOpts {
                        predicate: Some(pred),
                        src_event: None,
                        dst_event: Some(dst),
                    },
                );
                // Nothing delivered yet; now fire the predicate locally.
                img.post_event_local(pred.id);
            } else {
                img.event_wait(&dst);
                assert_eq!(ca.local_vec(img)[0], 99);
            }
            img.sync_all();
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn predicate_already_posted_runs_immediately() {
        both(1, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let pred = img.event_alloc(&w);
            img.post_event_local(pred.id);
            img.copy_async_put(
                &ca,
                0,
                0,
                &[7],
                AsyncOpts {
                    predicate: Some(pred),
                    src_event: None,
                    dst_event: None,
                },
            );
            img.cofence();
            img.flush_all();
            assert_eq!(ca.local_vec(img)[0], 7);
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn copy_between_remote_coarrays() {
        both(3, |img| {
            let w = img.team_world();
            let a: Coarray<u64> = img.coarray_alloc(&w, 4);
            let b: Coarray<u64> = img.coarray_alloc(&w, 4);
            // Image 1's part of `a` holds known data.
            if img.this_image() == 1 {
                a.local_write(img, 0, &[11, 12, 13, 14]);
            }
            img.sync_all();
            // Image 0 copies a[1] → b[2] with a destination event.
            let dst_ev = img.event_alloc(&w);
            if img.this_image() == 0 {
                img.copy_async_between(&a, 1, 1, &b, 2, 0, 3, AsyncOpts::with_dst(dst_ev));
            }
            if img.this_image() == 2 {
                img.event_wait(&dst_ev);
                assert_eq!(b.local_vec(img)[..3], [12, 13, 14]);
            }
            img.sync_all();
            img.coarray_free(&w, a);
            img.coarray_free(&w, b);
        });
    }

    #[test]
    fn copy_between_with_predicate() {
        both(2, |img| {
            let w = img.team_world();
            let a: Coarray<u64> = img.coarray_alloc(&w, 2);
            let b: Coarray<u64> = img.coarray_alloc(&w, 2);
            let pred = img.event_alloc(&w);
            let done = img.event_alloc(&w);
            a.local_write(img, 0, &[img.this_image() as u64 + 40, 0]);
            img.sync_all();
            if img.this_image() == 0 {
                // Deferred until pred fires locally.
                img.copy_async_between(
                    &a,
                    1,
                    0,
                    &b,
                    1,
                    1,
                    1,
                    AsyncOpts {
                        predicate: Some(pred),
                        src_event: None,
                        dst_event: Some(done),
                    },
                );
                img.post_event_local(pred.id);
            } else {
                img.event_wait(&done);
                assert_eq!(b.local_vec(img)[1], 41);
            }
            img.sync_all();
            img.coarray_free(&w, a);
            img.coarray_free(&w, b);
        });
    }

    #[test]
    fn async_broadcast_posts_its_event() {
        both(3, |img| {
            let w = img.team_world();
            let ev1 = img.event_alloc(&w);
            let mut data = if img.this_image() == 0 {
                vec![9u64]
            } else {
                Vec::new()
            };
            img.team_broadcast_async(&w, 0, &mut data, Some(ev1), None);
            assert_eq!(data, vec![9]);
            img.event_wait(&ev1);
        });
    }

    #[test]
    fn cofence_with_event_posts() {
        both(1, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            let ev = img.event_alloc(&w);
            img.copy_async_put(&ca, 0, 0, &[3], AsyncOpts::none());
            img.cofence_with_event(&ev);
            img.event_wait(&ev);
            assert_eq!(img.implicit_puts.get(), 0);
            img.coarray_free(&w, ca);
        });
    }
}
