//! One rank's receive queue on one plane: the fabric's "NIC receive
//! queue".
//!
//! Many senders, one receiver. A `Mutex` over the packets and the
//! receiver's sleeper, plus a count of queued packets that can be read
//! without the lock, so an empty poll is one load. A push wakes the
//! receiver only if it registered itself as asleep on an empty queue
//! (the wait loop of caf-sched's module docs), so a send to a running
//! receiver makes no syscall and touches no executor state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::packet::Packet;

/// A single-consumer packet queue.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// `packets.len()`, readable without the lock; written only under it.
    queued: AtomicUsize,
    /// Every update is one push or pop, so a poisoned lock still guards
    /// a consistent queue.
    queue: Mutex<Queue>,
}

#[derive(Default)]
struct Queue {
    packets: VecDeque<Packet>,
    /// The receiver, while it is asleep (or about to be) on an empty
    /// queue.
    sleeper: Option<caf_sched::Waker>,
}

impl Mailbox {
    /// Append `pkt`, waking the receiver if it sleeps.
    pub(crate) fn push(&self, pkt: Packet) {
        let sleeper = {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.packets.push_back(pkt);
            self.queued.store(q.packets.len(), Ordering::Relaxed);
            q.sleeper.take()
        };
        if let Some(w) = sleeper {
            w.wake();
        }
    }

    /// The oldest packet, if any. An empty mailbox costs one load.
    ///
    /// A packet whose push happens-before this call is seen: the store of
    /// the count it made (or a later one, all made under the lock) is
    /// what the load reads, and only the receiver makes it fall.
    #[inline]
    pub(crate) fn try_pop(&self) -> Option<Packet> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let pkt = q.packets.pop_front();
        self.queued.store(q.packets.len(), Ordering::Relaxed);
        pkt
    }

    /// Whether the mailbox is empty, decided under the lock: unlike an
    /// empty [`Mailbox::try_pop`], this sees every push that finished
    /// before the call in real time, not only those ordered before it.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).packets.is_empty()
    }

    /// The oldest packet, sleeping until there is one: pop under the
    /// lock, or register the caller as the sleeper and park. A wake that
    /// finds the queue still empty (a stray permit) re-polls and parks
    /// again.
    pub(crate) fn pop_blocking(&self) -> Packet {
        loop {
            {
                let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(pkt) = q.packets.pop_front() {
                    self.queued.store(q.packets.len(), Ordering::Relaxed);
                    q.sleeper = None;
                    return pkt;
                }
                q.sleeper = Some(caf_sched::waker());
            }
            caf_sched::park();
        }
    }
}

#[cfg(test)]
mod tests {
    //! Small enough for Miri; each test with more than one rank runs
    //! under `Threads` and under `Tasks` with one run slot.

    use super::*;
    use crate::{Fabric, FabricConfig, Watch};
    use caf_sched::ExecConfig;

    fn modes() -> [ExecConfig; 2] {
        [ExecConfig::default(), ExecConfig { workers: 1, ..ExecConfig::tasks() }]
    }

    fn config(exec: ExecConfig) -> FabricConfig {
        FabricConfig { exec, ..FabricConfig::default() }
    }

    fn tagged(src: usize, tag: i64) -> Packet {
        Packet::control(src, 0, tag, [0; 4])
    }

    const PER_SENDER: i64 = if cfg!(miri) { 20 } else { 500 };

    #[test]
    fn three_senders_to_one_blocked_receiver_keep_per_sender_fifo() {
        for exec in modes() {
            let out = Fabric::run_with_config(4, config(exec), |ep| {
                if ep.rank() != 0 {
                    for i in 0..PER_SENDER {
                        ep.send(0, tagged(ep.rank(), i)).unwrap();
                    }
                    return Vec::new();
                }
                let mut next = [0i64; 4];
                for _ in 0..3 * PER_SENDER {
                    let p = ep.recv_blocking().unwrap();
                    assert_eq!(p.tag, next[p.src], "sender {} out of order ({exec:?})", p.src);
                    next[p.src] += 1;
                }
                assert!(ep.try_recv().is_none());
                next[1..].to_vec()
            });
            assert_eq!(out[0], [PER_SENDER; 3]);
        }
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        let rounds = if cfg!(miri) { 100 } else { 10_000 };
        for exec in modes() {
            let out = Fabric::run_with_config(2, config(exec), |ep| {
                let peer = 1 - ep.rank();
                let mut last = -1;
                for i in 0..rounds {
                    if ep.rank() == 0 {
                        ep.send(peer, tagged(0, i)).unwrap();
                    }
                    last = ep.recv_blocking().unwrap().tag;
                    assert_eq!(last, i);
                    if ep.rank() == 1 {
                        ep.send(peer, tagged(1, i)).unwrap();
                    }
                }
                last
            });
            assert_eq!(out, [rounds - 1, rounds - 1], "{exec:?}");
        }
    }

    #[test]
    fn stray_wakes_only_cause_a_repoll() {
        // The receiver's waker is woken with no packet behind it before
        // every push, and again after the push has woken it: a stale
        // registration or a stray permit. Every packet arrives once, in
        // order, and the count agrees with the queue at the end.
        let rounds = if cfg!(miri) { 20 } else { 1_000 };
        for exec in modes() {
            let mb = Mailbox::default();
            let receiver = Mutex::new(None::<caf_sched::Waker>);
            let out = caf_sched::run(2, &exec, |rank| {
                if rank == 0 {
                    *receiver.lock().unwrap() = Some(caf_sched::waker());
                    let got: Vec<i64> = (0..rounds).map(|_| mb.pop_blocking().tag).collect();
                    assert_eq!(got, (0..rounds).collect::<Vec<_>>(), "{exec:?}");
                    assert!(mb.try_pop().is_none());
                    return;
                }
                let w = loop {
                    if let Some(w) = receiver.lock().unwrap().clone() {
                        break w;
                    }
                    caf_sched::yield_now();
                };
                for i in 0..rounds {
                    w.clone().wake();
                    mb.push(tagged(1, i));
                    w.clone().wake();
                    if i % 7 == 0 {
                        caf_sched::yield_now();
                    }
                }
            });
            assert!(out.into_iter().all(|r| r.is_ok()));
            assert_eq!(mb.queued.load(Ordering::Relaxed), 0);
            assert!(mb.queue.lock().unwrap().packets.is_empty());
        }
    }

    #[test]
    fn an_empty_poll_does_not_take_the_lock() {
        let mb = Mailbox::default();
        let held = mb.queue.lock().unwrap();
        assert!(mb.try_pop().is_none());
        drop(held);
        mb.push(tagged(0, 3));
        assert_eq!(mb.try_pop().unwrap().tag, 3);
        assert!(mb.try_pop().is_none());
    }

    #[test]
    fn a_failure_notice_wakes_a_sleeping_receiver() {
        for exec in modes() {
            let out = Fabric::run_with_config_ft(2, config(exec), |ep| {
                if ep.rank() == 1 {
                    ep.fail_now();
                }
                ep.match_blocking(Watch::All, |_| true, Some).unwrap_err()
            });
            assert!(out[1].is_none(), "{exec:?}");
        }
    }
}
