//! Active Messages — the GASNet core API's defining mechanism.
//!
//! Three request categories, mirroring `gasnet_AMRequestShortM` /
//! `MediumM` / `LongM`:
//!
//! * **short** — up to [`AM_MAX_ARGS`] 64-bit arguments, no payload;
//! * **medium** — arguments plus an opaque payload of at most
//!   [`AM_MAX_MEDIUM`] bytes, delivered to a library buffer;
//! * **long** — arguments plus a payload deposited at a *caller-specified
//!   offset in the target's segment* before the handler runs.
//!
//! Handlers run **only inside a poll** ([`Gasnet::poll`] or any blocking
//! GASNet call). There is no asynchronous progress thread; that is the
//! exact progress property the paper's interoperability discussion turns
//! on.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;

use caf_fabric::delay::{spin_for_ns, DelayOp};
use caf_fabric::pod::{as_bytes, vec_from_bytes};
use caf_fabric::{Packet, Result};

use crate::universe::{Gasnet, KIND_AM_LONG, KIND_AM_MEDIUM, KIND_AM_SHORT};

/// Maximum number of 64-bit arguments an AM may carry
/// (`gasnet_AMMaxArgs()`).
pub const AM_MAX_ARGS: usize = 16;

/// Maximum medium-AM payload in bytes (`gasnet_AMMaxMedium()`).
pub const AM_MAX_MEDIUM: usize = 4096;

/// Reserved handler: AM-mediated put, target side (deposits are already in
/// the segment; replies with an ack).
pub(crate) const H_PUT_ACK_REQ: usize = 0;
/// Reserved handler: AM-mediated put acknowledgement, origin side.
pub(crate) const H_PUT_ACK_REPLY: usize = 1;
/// First handler index available to clients.
pub const FIRST_USER_HANDLER: usize = 2;

/// An AM handler: `(gasnet, token, args, payload)`. For long AMs the
/// payload has already been deposited in the local segment; the slice
/// passed here is a copy read back for convenience. Handlers run only
/// inside a poll of the rank that registered them, so they need not be
/// `Send` or `Sync`.
pub type Handler = Rc<dyn Fn(&Gasnet, Token, &[u64], &[u8])>;

/// Identifies the requester inside a handler; required for replies.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Rank the request came from.
    pub src: usize,
}

/// The per-rank handler registration table.
pub struct HandlerTable {
    slots: RefCell<Vec<Option<Handler>>>,
}

impl HandlerTable {
    /// A table with the library-reserved handlers pre-registered.
    pub(crate) fn with_reserved() -> Self {
        let t = HandlerTable {
            slots: RefCell::new(vec![None; 64]),
        };
        t.set(
            H_PUT_ACK_REQ,
            Rc::new(|g: &Gasnet, tok: Token, args: &[u64], _data: &[u8]| {
                g.am_reply_short(tok, H_PUT_ACK_REPLY, args)
                    .expect("put-ack reply");
            }),
        );
        t.set(
            H_PUT_ACK_REPLY,
            Rc::new(|g: &Gasnet, _tok: Token, _args: &[u64], _data: &[u8]| {
                g.put_acks_received.set(g.put_acks_received.get() + 1);
            }),
        );
        t
    }

    pub(crate) fn set(&self, idx: usize, h: Handler) {
        let mut slots = self.slots.borrow_mut();
        if idx >= slots.len() {
            slots.resize(idx + 1, None);
        }
        slots[idx] = Some(h);
    }

    pub(crate) fn get(&self, idx: usize) -> Option<Handler> {
        self.slots.borrow().get(idx).and_then(|s| s.clone())
    }
}

impl Gasnet {
    /// Register `handler` at table index `idx` (must be
    /// `>= FIRST_USER_HANDLER`).
    pub fn register_handler(
        &self,
        idx: usize,
        handler: impl Fn(&Gasnet, Token, &[u64], &[u8]) + 'static,
    ) {
        assert!(
            idx >= FIRST_USER_HANDLER,
            "handler indices below {FIRST_USER_HANDLER} are reserved"
        );
        self.handlers.set(idx, Rc::new(handler));
    }

    fn am_send(&self, dest: usize, kind: u16, handler: usize, h: [u64; 4], payload: Bytes) -> Result<()> {
        self.delays.charge(DelayOp::P2pInject, payload.len());
        self.ep.send(
            dest,
            Packet::with_payload(self.rank(), kind, handler as i64, h, payload),
        )
    }

    /// `gasnet_AMRequestShort`: integer arguments only.
    pub fn am_request_short(&self, dest: usize, handler: usize, args: &[u64]) -> Result<()> {
        assert!(args.len() <= AM_MAX_ARGS, "too many AM arguments");
        self.am_send(
            dest,
            KIND_AM_SHORT,
            handler,
            [args.len() as u64, 0, 0, 0],
            Bytes::copy_from_slice(as_bytes(args)),
        )
    }

    /// `gasnet_AMRequestMedium`: arguments plus an opaque payload delivered
    /// to a library buffer at the target. `data` is copied once, into the
    /// packet (behind the arguments, if any).
    pub fn am_request_medium(
        &self,
        dest: usize,
        handler: usize,
        args: &[u64],
        data: &[u8],
    ) -> Result<()> {
        assert!(args.len() <= AM_MAX_ARGS, "too many AM arguments");
        if args.is_empty() {
            return self.am_request_medium_bytes(dest, handler, Bytes::copy_from_slice(data));
        }
        assert!(data.len() <= AM_MAX_MEDIUM, "medium AM payload too large");
        let payload = Bytes::from([as_bytes(args), data].concat());
        self.am_send(dest, KIND_AM_MEDIUM, handler, [args.len() as u64, 0, 0, 0], payload)
    }

    /// [`Gasnet::am_request_medium`] without arguments, for a payload the
    /// caller built in a buffer the packet takes over: no copy.
    pub fn am_request_medium_bytes(&self, dest: usize, handler: usize, data: Bytes) -> Result<()> {
        assert!(data.len() <= AM_MAX_MEDIUM, "medium AM payload too large");
        self.am_send(dest, KIND_AM_MEDIUM, handler, [0; 4], data)
    }

    /// `gasnet_AMRequestLong`: the payload is deposited at `dest_offset` in
    /// the target's segment *before* the handler is invoked.
    pub fn am_request_long(
        &self,
        dest: usize,
        handler: usize,
        args: &[u64],
        data: &[u8],
        dest_offset: usize,
    ) -> Result<()> {
        assert!(args.len() <= AM_MAX_ARGS, "too many AM arguments");
        if !self.deposit(dest, dest_offset, data)? {
            // Dead target: no payload to find, nobody to run the handler.
            return Ok(());
        }
        self.am_send(
            dest,
            KIND_AM_LONG,
            handler,
            [
                args.len() as u64,
                dest_offset as u64,
                data.len() as u64,
                0,
            ],
            Bytes::copy_from_slice(as_bytes(args)),
        )
    }

    /// Reply with a short AM from within a handler.
    pub fn am_reply_short(&self, token: Token, handler: usize, args: &[u64]) -> Result<()> {
        self.am_request_short(token.src, handler, args)
    }

    /// `gasnet_AMPoll`: drain arrived packets, invoking AM handlers;
    /// non-AM packets are stashed for their blocking consumers. Returns the
    /// number of AMs dispatched.
    pub fn poll(&self) -> usize {
        let mut dispatched = 0;
        self.ep.try_match(
            |_| false,
            |pkt| {
                let kept = self.dispatch_or_keep(pkt);
                dispatched += usize::from(kept.is_none());
                kept
            },
        );
        // Only productive polls are recorded (`bytes` = AMs dispatched);
        // empty polls run in spin loops and would flood the ring.
        if dispatched > 0 && caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::AmPoll, None, dispatched as u64, None);
        }
        dispatched
    }

    /// Decode and run one AM packet.
    pub(crate) fn dispatch_am(&self, pkt: Packet) {
        let _span = caf_trace::span_t(
            caf_trace::Op::AmDispatch,
            Some(pkt.src),
            pkt.payload.len() as u64,
            None,
        );
        self.delays.charge(DelayOp::AmDispatch, pkt.payload.len());
        let srq_ns = self.srq_penalty_ns();
        if srq_ns > 0.0 && caf_trace::enabled() {
            caf_trace::instant(caf_trace::Op::SrqSlowPath, Some(pkt.src), srq_ns as u64, None);
        }
        spin_for_ns(srq_ns);
        let nargs = pkt.h[0] as usize;
        let args: Vec<u64> = vec_from_bytes(&pkt.payload[..nargs * 8]);
        let handler_idx = pkt.tag as usize;
        let handler = self
            .handlers
            .get(handler_idx)
            .unwrap_or_else(|| panic!("AM for unregistered handler {handler_idx}"));
        let token = Token { src: pkt.src };
        match pkt.kind {
            KIND_AM_SHORT => handler(self, token, &args, &[]),
            KIND_AM_MEDIUM => handler(self, token, &args, &pkt.payload[nargs * 8..]),
            KIND_AM_LONG => {
                let offset = pkt.h[1] as usize;
                let len = pkt.h[2] as usize;
                let mut data = vec![0u8; len];
                self.local
                    .get(offset, &mut data)
                    .expect("long AM payload within segment");
                handler(self, token, &args, &data);
            }
            _ => unreachable!("dispatch_am on non-AM packet"),
        }
    }
}

#[cfg(test)]
mod tests {

    use crate::universe::GasnetUniverse;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn short_am_delivers_args() {
        GasnetUniverse::run(2, |g| {
            static SUM: AtomicU64 = AtomicU64::new(0);
            if g.rank() == 1 {
                g.register_handler(2, |_g, tok, args, data| {
                    assert_eq!(tok.src, 0);
                    assert!(data.is_empty());
                    SUM.store(args.iter().sum(), Ordering::SeqCst);
                });
            }
            g.barrier();
            if g.rank() == 0 {
                g.am_request_short(1, 2, &[10, 20, 30]).unwrap();
            }
            g.barrier(); // target polls inside the barrier
            if g.rank() == 1 {
                assert_eq!(SUM.load(Ordering::SeqCst), 60);
            }
        });
    }

    #[test]
    fn medium_am_carries_payload() {
        GasnetUniverse::run(2, |g| {
            static GOT: AtomicU64 = AtomicU64::new(0);
            g.register_handler(3, |_g, _tok, args, data| {
                assert_eq!(args, &[7]);
                GOT.store(data.iter().map(|&b| b as u64).sum(), Ordering::SeqCst);
            });
            g.barrier();
            if g.rank() == 0 {
                g.am_request_medium(1, 3, &[7], &[1, 2, 3, 4]).unwrap();
            }
            g.barrier();
            if g.rank() == 1 {
                assert_eq!(GOT.load(Ordering::SeqCst), 10);
            }
        });
    }

    #[test]
    fn long_am_deposits_into_segment_before_handler() {
        GasnetUniverse::run(2, |g| {
            static OK: AtomicU64 = AtomicU64::new(0);
            g.register_handler(4, |g, _tok, args, data| {
                // Payload must already be in the local segment.
                let mut seg_copy = vec![0u8; data.len()];
                g.local_segment().get(args[0] as usize, &mut seg_copy).unwrap();
                assert_eq!(seg_copy, data);
                OK.store(1, Ordering::SeqCst);
            });
            g.barrier();
            if g.rank() == 0 {
                g.am_request_long(1, 4, &[64], &[9, 8, 7], 64).unwrap();
            }
            g.barrier();
            if g.rank() == 1 {
                assert_eq!(OK.load(Ordering::SeqCst), 1);
            }
        });
    }

    #[test]
    fn replies_reach_the_requester() {
        GasnetUniverse::run(2, |g| {
            static PONG: AtomicU64 = AtomicU64::new(0);
            g.register_handler(5, |g, tok, args, _| {
                g.am_reply_short(tok, 6, &[args[0] * 2]).unwrap();
            });
            g.register_handler(6, |_g, _tok, args, _| {
                PONG.store(args[0], Ordering::SeqCst);
            });
            g.barrier();
            if g.rank() == 0 {
                g.am_request_short(1, 5, &[21]).unwrap();
                while PONG.load(Ordering::SeqCst) == 0 {
                    g.poll();
                }
                assert_eq!(PONG.load(Ordering::SeqCst), 42);
            }
            g.barrier();
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing / raw spin")]
    fn no_progress_without_poll() {
        GasnetUniverse::run(2, |g| {
            static HIT: AtomicU64 = AtomicU64::new(0);
            g.register_handler(2, |_g, _tok, _args, _| {
                HIT.fetch_add(1, Ordering::SeqCst);
            });
            g.barrier();
            if g.rank() == 0 {
                g.am_request_short(1, 2, &[1]).unwrap();
                g.barrier();
            } else {
                // Wait until the message must have arrived, without polling.
                std::thread::sleep(std::time::Duration::from_millis(30));
                assert_eq!(HIT.load(Ordering::SeqCst), 0, "AM ran without a poll");
                g.barrier(); // barrier polls; handler fires here
                assert_eq!(HIT.load(Ordering::SeqCst), 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "are reserved")]
    fn reserved_handler_indices_rejected() {
        GasnetUniverse::run(1, |g| {
            g.register_handler(0, |_g, _t, _a, _d| {});
        });
    }

    #[test]
    fn poll_dispatches_all_arrivals() {
        // Note: blocking GASNet calls (the barrier) also dispatch AMs, so
        // the handler-side counter is the reliable ledger, not poll()'s
        // return value.
        GasnetUniverse::run(2, |g| {
            static HITS: AtomicU64 = AtomicU64::new(0);
            g.register_handler(2, |_g, _t, _a, _d| {
                HITS.fetch_add(1, Ordering::SeqCst);
            });
            g.barrier();
            if g.rank() == 0 {
                for _ in 0..5 {
                    g.am_request_short(1, 2, &[]).unwrap();
                }
                g.barrier();
            } else {
                g.barrier();
                while HITS.load(Ordering::SeqCst) < 5 {
                    g.poll();
                }
                assert_eq!(HITS.load(Ordering::SeqCst), 5);
            }
        });
    }
}
