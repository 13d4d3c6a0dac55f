//! The prologue of every CAF operation (DESIGN.md §3.2).
//!
//! An operation describes itself once, as a [`CafOp`], and [`Image::op`]
//! feeds that description to the three instruments that watch the
//! portable layer: the `caf-check` sanitizer, the `caf-trace` span ring
//! and the [`crate::Stats`] ledger. This file is the only place in the
//! crate that knows the sanitizer is a cargo feature.

use crate::backend::On;
use crate::image::Image;
use crate::stats::{sampled, StatCat};
use crate::team::{GTeam, Team};

/// The happens-before edge an operation creates; its coordinates are the
/// descriptor's (`region`, `target`, `word`, `bytes`). All but the second
/// half of a round are *entry* edges, reported before the body runs: an
/// access is judged against the clock the image starts the operation
/// with, a send snapshots the sender's past, a receive joins the sender's
/// clock before the image acts on what it received.
#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // read by `Image::sanitize` alone, which a hooks-off build leaves out
pub(crate) enum Edge {
    /// The operation orders nothing and touches no coarray memory itself
    /// (its sub-operations may).
    None,
    /// Load of `[word, word + bytes)` of `target`'s part of `region`.
    Read,
    /// Store to the same.
    Write,
    /// Strided access: `bytes / elem` elements of `elem` bytes, `stride`
    /// bytes apart, from `word`. Reported per element — stride gaps are
    /// untouched bytes and must not be claimed, or disjoint interleaved
    /// sections would be flagged as overlapping.
    Section { write: bool, elem: u64, stride: u64 },
    /// Synchronization send of token `word` towards `target`.
    Send(Chan),
    /// The matching receive.
    Recv(Chan),
    /// One collective round of the `.0`-member team with id `word`:
    /// entered at entry, left at exit, where every member's entry clock is
    /// joined. (The GASNet collectives are hand-rolled from AMs the
    /// detector cannot see, so the round is recorded here.)
    Round(usize),
    /// As `Round`; at exit the shadow history of `region` is dropped too
    /// (a collective free — region ids are recycled).
    Free(usize),
    /// A `Stat` about to be delivered says image `.0` died: edges to a
    /// failed image terminate.
    Failed(usize),
}

/// The channel a [`Edge::Send`] / [`Edge::Recv`] token is unique in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Chan {
    /// Counting-event posts (token: the event id).
    Event,
    /// Function shipping (token: the ship-registry slot).
    Ship,
    /// Aggregation batches (token: one per drained bucket).
    Batch,
}

/// One CAF operation, described once: `Copy`, built by its caller from
/// constants and values it already holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CafOp {
    /// Ledger category, which is also the trace span's op. `None` for a
    /// sub-operation riding inside a categorised one (the post that ends
    /// an `event_notify`, the access of a `copy_async`, a local load): it
    /// creates its edge and leaves no span and no ledger row.
    pub cat: Option<StatCat>,
    /// Global index of the image the operation targets.
    pub target: Option<usize>,
    /// Payload bytes.
    pub bytes: u64,
    /// Coarray region (window) id.
    pub region: Option<u64>,
    /// Byte displacement of a data operation; otherwise the sync token
    /// (event id, ship slot, batch token, team id).
    pub word: Option<u64>,
    /// The happens-before edge.
    #[allow(dead_code)] // as `Edge`: the sanitizer step is its only reader
    pub edge: Edge,
}

impl CafOp {
    /// An operation charged to `cat` that names no image, region or token
    /// and creates no edge — the base of every other descriptor.
    pub(crate) const fn of(cat: Option<StatCat>) -> CafOp {
        CafOp { cat, target: None, bytes: 0, region: None, word: None, edge: Edge::None }
    }

    /// The uncategorised send of `token` on `chan` to `dest`.
    pub(crate) const fn send(chan: Chan, token: u64, dest: usize) -> CafOp {
        CafOp { target: Some(dest), word: Some(token), edge: Edge::Send(chan), ..CafOp::of(None) }
    }

    /// The uncategorised receive of `token` on `chan`.
    pub(crate) const fn recv(chan: Chan, token: u64) -> CafOp {
        CafOp { word: Some(token), edge: Edge::Recv(chan), ..CafOp::of(None) }
    }
}

impl Image {
    /// Run `body` as the operation `op` describes, always in this order
    /// (DESIGN.md §3.2 says why): sanitizer entry edge; trace span opens;
    /// ledger section opens; `body`; ledger and span close — a `_stat`
    /// call reporting a failed image returns through here like any other;
    /// sanitizer exit edge. Span and ledger are for categorised
    /// operations only.
    ///
    /// Always inlined: callers are generic code instantiated downstream
    /// without LTO, and each passes a descriptor whose `cat` and `edge`
    /// are constants, so every operation compiles to the steps it takes
    /// and nothing else.
    #[inline(always)]
    pub(crate) fn op<R>(&self, op: CafOp, body: impl FnOnce() -> R) -> R {
        #[cfg(feature = "check")]
        self.sanitize(&op, false);
        let out = match op.cat {
            Some(cat) => {
                let _span = caf_trace::span_d(cat.op(), op.target, op.bytes, op.region, op.word);
                self.stats().section(cat, sampled(cat, op.bytes), body)
            }
            None => body(),
        };
        #[cfg(feature = "check")]
        self.sanitize(&op, true);
        out
    }

    /// An operation that is nothing but its edge.
    #[inline(always)]
    pub(crate) fn edge(&self, op: CafOp) {
        self.op(op, || ());
    }

    /// A collective on `team`: one round, charged to `cat`, its body
    /// handed the team paired with this image's backend.
    #[inline(always)]
    pub(crate) fn collective<'a, R>(
        &'a self,
        team: &'a Team,
        cat: Option<StatCat>,
        body: impl FnOnce(On<'a, caf_mpisim::Comm, GTeam>) -> R,
    ) -> R {
        let op = CafOp { word: Some(team.id()), edge: Edge::Round(team.size()), ..CafOp::of(cat) };
        self.op(op, || body(team.on(&self.backend)))
    }

    /// The first and last step of [`Image::op`]: the descriptor's edge in
    /// the sanitizer's vocabulary.
    #[cfg(feature = "check")]
    #[inline]
    fn sanitize(&self, op: &CafOp, exit: bool) {
        use caf_check::hooks::{hb, HbEdge, NS_AGG, NS_EVENT, NS_SHIP};
        if matches!(op.edge, Edge::None) || !caf_check::enabled() {
            return;
        }
        let me = self.this_image();
        let (region, owner) = (op.region.unwrap_or(0), op.target.unwrap_or(me));
        let word = op.word.unwrap_or(0);
        let access = |disp, len, write| hb(me, HbEdge::Access { region, owner, disp, len, write });
        let ns = |chan| match chan {
            Chan::Event => NS_EVENT,
            Chan::Ship => NS_SHIP,
            Chan::Batch => NS_AGG,
        };
        match (op.edge, exit) {
            (Edge::Read, false) => access(word, op.bytes, false),
            (Edge::Write, false) => access(word, op.bytes, true),
            (Edge::Section { write, elem, stride }, false) => {
                (0..op.bytes / elem).for_each(|i| access(word + i * stride, elem, write));
            }
            (Edge::Send(chan), false) => hb(me, HbEdge::Send { ns: ns(chan), token: word, dest: owner }),
            (Edge::Recv(chan), false) => hb(me, HbEdge::Recv { ns: ns(chan), token: word }),
            (Edge::Round(_) | Edge::Free(_), false) => hb(me, HbEdge::CollEnter { team: word }),
            (Edge::Round(members), true) => hb(me, HbEdge::CollExit { team: word, members }),
            (Edge::Free(members), true) => {
                hb(me, HbEdge::CollExit { team: word, members });
                hb(me, HbEdge::RegionFree { region });
            }
            (Edge::Failed(failed), false) => hb(me, HbEdge::ImageFailed { failed }),
            (_, true) | (Edge::None, _) => {}
        }
    }
}
