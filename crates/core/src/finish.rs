//! `finish` blocks, function shipping, and distributed termination
//! detection (paper §2.1, §3.5).
//!
//! A `finish` is a block-structured, *collective* global synchronization:
//! every image of the team opens a matching block, and on exit all
//! asynchronous operations issued inside — including chains of shipped
//! functions that ship further functions — are globally complete.
//!
//! Termination of shipping chains is detected with Yang's algorithm: the
//! team repeatedly SUM-reduces the difference between functions shipped
//! and functions completed; quiescence is a zero sum. In the worst case
//! this takes `n` rounds, where `n` is the longest shipping chain. A fast
//! path (`finish_fast`) handles the no-shipping case with
//! `MPI_WIN_FLUSH_ALL` on every touched window plus a team barrier.

use crate::image::Image;
use crate::op::{CafOp, Chan};
use crate::rtmsg::ship_frame;
use crate::stats::StatCat;
use crate::team::Team;

/// The closing synchronization of a finish block.
const FINISH: CafOp = CafOp::of(Some(StatCat::Finish));

impl Image {
    /// Run `body` inside a finish block over `team`. On return, all
    /// asynchronous operations and all (transitively) shipped functions
    /// issued within the block are globally complete. Blocks nest: an
    /// inner block only awaits its own operations (paper §2.1).
    pub fn finish<R>(&self, team: &Team, body: impl FnOnce(&Image) -> R) -> R {
        let (result, stat) = self.finish_stat(team, body);
        stat.expect_ok("finish");
        result
    }

    /// As [`Image::finish`], with a failure screen: returns the body's
    /// result together with a [`crate::Stat`]. Failure detection
    /// piggybacks on the termination-detection rounds themselves — each
    /// SUM-reduce of the shipping counters doubles as a heartbeat, so a
    /// member that dies mid-block surfaces as
    /// [`crate::Stat::FailedImage`] on the next round instead of stalling
    /// quiescence forever. On a failed exit the block's counters are
    /// discarded: completions owed by the dead image can never arrive.
    pub fn finish_stat<R>(
        &self,
        team: &Team,
        body: impl FnOnce(&Image) -> R,
    ) -> (R, crate::stat::Stat) {
        self.fault_point("finish");
        let fid = self.next_team_token(team, 0xF1);
        self.finish_stack.borrow_mut().push(fid);
        let result = body(self);
        self.finish_stack.borrow_mut().pop();

        let stat = self.op(FINISH, || {
            // Aggregation buckets drain first, accounted to this block's
            // id (the stack is already popped, so the id is explicit):
            // every batch — and every store-and-forward hop it spawns —
            // counts as a shipped/completed pair, so Yang's loop below
            // awaits coalesced traffic exactly like shipping chains.
            self.agg_drain_all(fid);
            // Local then remote completion of this image's one-sided ops,
            // under the configured flush policy (targeted/rflush aware).
            self.release_all();
            // Yang's termination detection over shipping counters.
            let stat = loop {
                self.poll(); // execute any pending shipped functions
                let (shipped, completed) = {
                    let counters = self.finish_counters.borrow();
                    counters.get(&fid).copied().unwrap_or((0, 0))
                };
                match self.allreduce_stat(team, &[shipped as i64 - completed as i64], |a, b| {
                    a + b
                }) {
                    Ok(sum) => {
                        debug_assert!(sum[0] >= 0, "more completions than ships");
                        if sum[0] == 0 {
                            break crate::stat::Stat::Ok;
                        }
                    }
                    Err(stat) => break stat,
                }
            };
            self.finish_counters.borrow_mut().remove(&fid);
            stat
        });
        (result, stat)
    }

    /// The fast finish for code that does not use function shipping:
    /// flush every touched window, then barrier (paper §3.5).
    pub fn finish_fast<R>(&self, team: &Team, body: impl FnOnce(&Image) -> R) -> R {
        let result = body(self);
        self.op(FINISH, || {
            let agg = self.agg_enabled();
            if agg {
                self.agg_drain_all(0);
            }
            self.release_all();
            self.barrier(team);
            if agg {
                // Batched AMs complete by target-side application, not by
                // a flush: after the barrier every batch sits in its
                // target's mailbox (sends inject synchronously), so one
                // poll+barrier round delivers it — and with routing on,
                // each round advances forwarded records one hop, so
                // log2(P) rounds cover the longest hypercube chain.
                let rounds = if self.agg_config().routing {
                    self.num_images().next_power_of_two().trailing_zeros().max(1)
                } else {
                    1
                };
                for _ in 0..rounds {
                    self.poll();
                    self.barrier(team);
                }
            }
        });
        result
    }

    /// Ship `f` to run on team member `target` (function shipping,
    /// paper §2.1). The shipped function may perform coarray reads and
    /// writes, post events, and ship further functions; completion is
    /// awaited by the innermost enclosing [`Image::finish`] block.
    ///
    /// Shipped functions must not call team collectives: the executing
    /// image runs them from its progress engine, outside any collective
    /// schedule (a documented narrowing of CAF 2.0's "full range of
    /// operations" — see DESIGN.md).
    pub fn ship(
        &self,
        team: &Team,
        target: usize,
        f: impl FnOnce(&Image) + Send + 'static,
    ) {
        let fid = self.finish_stack.borrow().last().copied().unwrap_or(0);
        self.finish_counter(fid).0 += 1;
        let global = team.global_rank(target);
        if global == self.this_image() {
            // Self-shipping executes immediately (same as CAF 2.0).
            f(self);
            self.flush_all();
            self.finish_counter(fid).1 += 1;
            return;
        }
        let slot = self.ship_reg.park(Box::new(f));
        // The executor joins the shipper's clock before running the
        // closure (token = the globally unique registry slot); the send's
        // record is the shipping's trace instant.
        self.op(CafOp::send(Chan::Ship, slot, global), || {
            self.backend.send_rtmsg(global, &ship_frame(slot, fid));
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::coarray::Coarray;
    use crate::image::{both, CafConfig, CafUniverse, SubstrateKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn finish_without_shipping_is_a_sync() {
        both(4, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
            img.finish(&w, |img| {
                let peer = (img.this_image() + 1) % 4;
                img.copy_async_put(&ca, peer, 0, &[img.this_image() as u64 + 1], Default::default());
            });
            // After finish: delivery is globally complete.
            let writer = (img.this_image() + 3) % 4;
            assert_eq!(ca.local_vec(img)[0], writer as u64 + 1);
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn shipped_functions_execute_before_finish_exits() {
        let hits = Arc::new(AtomicU64::new(0));
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let hits = Arc::clone(&hits);
            CafUniverse::run_with_config(4, CafConfig::on(kind), move |img| {
                let w = img.team_world();
                let h = Arc::clone(&hits);
                img.finish(&w, |img| {
                    let target = (img.this_image() + 1) % 4;
                    img.ship(&w, target, move |_exec| {
                        h.fetch_add(1, Ordering::SeqCst);
                    });
                });
                // Every image shipped one function; all must have run.
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 8); // 4 images × 2 substrates
    }

    #[test]
    fn shipping_chains_terminate() {
        // Each shipped function ships another, three levels deep.
        both(3, |img| {
            let w = img.team_world();
            img.finish(&w, |img| {
                if img.this_image() == 0 {
                    let w1 = w.clone();
                    img.ship(&w, 1, move |exec| {
                        let w2 = w1.clone();
                        exec.ship(&w1, 2, move |exec2| {
                            exec2.ship(&w2, 0, |_| {});
                        });
                    });
                }
            });
        });
    }

    #[test]
    fn shipped_function_writes_coarray() {
        both(2, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            img.finish(&w, |img| {
                if img.this_image() == 0 {
                    let ca2 = ca.clone();
                    // Run on image 1; write into image 0's part from there.
                    img.ship(&w, 1, move |exec| {
                        ca2.write(exec, 0, 0, &[31337]);
                    });
                }
            });
            if img.this_image() == 0 {
                assert_eq!(ca.local_vec(img)[0], 31337);
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn shipped_handles_resolve_executor_local_part() {
        // Regression: a coarray handle captured by a shipped closure must
        // address the *executor's* local part, not the shipper's. With
        // all images shipping an increment of image 0's slot, image 0
        // must see every increment.
        both(4, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 2);
            img.finish(&w, |img| {
                let ca2 = ca.clone();
                img.ship(&w, 0, move |exec| {
                    let v = ca2.local_vec(exec)[1];
                    ca2.local_write(exec, 1, &[v + 1]);
                });
            });
            if img.this_image() == 0 {
                assert_eq!(ca.local_vec(img)[1], 4);
            } else {
                assert_eq!(ca.local_vec(img)[1], 0, "shipper's part untouched");
            }
            img.coarray_free(&w, ca);
        });
    }

    #[test]
    fn nested_finish_blocks() {
        both(2, |img| {
            let w = img.team_world();
            let outer_hits = Arc::new(AtomicU64::new(0));
            let oh = Arc::clone(&outer_hits);
            img.finish(&w, |img| {
                img.finish(&w, |img2| {
                    let ohh = Arc::clone(&oh);
                    let peer = 1 - img2.this_image();
                    img2.ship(&img2.team_world(), peer, move |_| {
                        ohh.fetch_add(1, Ordering::SeqCst);
                    });
                });
                // Inner finish completed: the ship this image issued has
                // executed (each image's counter travels with its own
                // shipped closure, so it sees exactly one increment).
                assert_eq!(oh.load(Ordering::SeqCst), 1);
            });
        });
    }

    #[test]
    fn self_ship_runs_inline() {
        both(1, |img| {
            let w = img.team_world();
            let ran = Arc::new(AtomicU64::new(0));
            let r = Arc::clone(&ran);
            img.finish(&w, |img| {
                img.ship(&w, 0, move |_| {
                    r.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(ran.load(Ordering::SeqCst), 1, "self-ship is inline");
            });
        });
    }

    #[test]
    fn finish_fast_synchronizes_puts() {
        both(4, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, 1);
            img.finish_fast(&w, |img| {
                let peer = (img.this_image() + 1) % 4;
                img.copy_async_put(&ca, peer, 0, &[7], Default::default());
            });
            assert_eq!(ca.local_vec(img)[0], 7);
            img.coarray_free(&w, ca);
        });
    }
}
