//! The prologue of every CAF operation (DESIGN.md §3.2).
//!
//! An operation describes itself once, as a [`CafOp`], and [`Image::op`]
//! feeds that description to the two instruments that watch the portable
//! layer: the `caf-trace` ring — whose records the `caf-check` replay
//! reads as happens-before edges — and the [`crate::Stats`] ledger.

use caf_trace::Op;

use caf_fabric::Group;

use crate::image::Image;
use crate::stats::{sampled, StatCat};
use crate::team::Team;

pub(crate) use caf_trace::Chan;

/// The happens-before edge an operation creates; its coordinates are the
/// descriptor's (`region`, `target`, `word`, `bytes`). All but the second
/// half of a round are *entry* edges, recorded before the body runs: an
/// access is judged against the clock the image starts the operation
/// with, a send snapshots the sender's past, a receive joins the sender's
/// clock before the image acts on what it received.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Edge {
    /// The operation orders nothing and touches no coarray memory itself
    /// (its sub-operations may).
    None,
    /// Load of `[word, word + bytes)` of `target`'s part of `region`.
    Read,
    /// Store to the same.
    Write,
    /// Strided access: `bytes / elem` elements of `elem` bytes, `stride`
    /// bytes apart, from `word`. Recorded per element — stride gaps are
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
    /// replay cannot see, so the round is recorded here.)
    Round(usize),
    /// As `Round`; at exit the shadow history of `region` is dropped too
    /// (a collective free — region ids are recycled).
    Free(usize),
    /// A `Stat` about to be delivered says image `.0` died: edges to a
    /// failed image terminate.
    Failed(usize),
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

    /// Whether the edge needs a trace record of its own. A remote read or
    /// write is its span (`window`, `target` and `disp` are the access),
    /// so the hot path tests nothing it did not test before.
    const fn records_edge(&self) -> bool {
        !matches!(
            (self.edge, self.cat),
            (Edge::None, _)
                | (Edge::Read | Edge::Write, Some(StatCat::CoarrayRead | StatCat::CoarrayWrite))
        )
    }

    /// The span's displacement word: none for a strided transfer, whose
    /// elements are recorded one by one.
    const fn span_word(&self) -> Option<u64> {
        match self.edge {
            Edge::Section { .. } => None,
            _ => self.word,
        }
    }
}

impl Image {
    /// Run `body` as the operation `op` describes, always in this order
    /// (DESIGN.md §3.2 says why): entry edge recorded; trace span opens;
    /// ledger section opens; `body`; ledger and span close — a `_stat`
    /// call reporting a failed image returns through here like any other;
    /// exit edge recorded. Span and ledger are for categorised operations
    /// only.
    ///
    /// Always inlined: callers are generic code instantiated downstream
    /// without LTO, and each passes a descriptor whose `cat` and `edge`
    /// are constants, so every operation compiles to the steps it takes
    /// and nothing else.
    #[inline(always)]
    pub(crate) fn op<R>(&self, op: CafOp, body: impl FnOnce() -> R) -> R {
        let traced = op.records_edge() && caf_trace::enabled();
        if traced {
            self.record_edge(&op, false);
        }
        let out = match op.cat {
            Some(cat) => {
                let _span = caf_trace::span_d(cat.op(), op.target, op.bytes, op.region, op.span_word());
                self.stats().section(cat, sampled(cat, op.bytes), body)
            }
            None => body(),
        };
        if traced {
            self.record_edge(&op, true);
        }
        out
    }

    /// An operation that is nothing but its edge.
    #[inline(always)]
    pub(crate) fn edge(&self, op: CafOp) {
        self.op(op, || ());
    }

    /// A collective on `team`: one round, charged to `cat`, its body
    /// handed the team's group.
    #[inline(always)]
    pub(crate) fn collective<'a, R>(
        &'a self,
        team: &'a Team,
        cat: Option<StatCat>,
        body: impl FnOnce(&'a Group) -> R,
    ) -> R {
        let op = CafOp { word: Some(team.id()), edge: Edge::Round(team.size()), ..CafOp::of(cat) };
        self.op(op, || body(&team.group))
    }

    /// The first and last step of [`Image::op`] on an armed trace: the
    /// descriptor's edge as the records the `caf-check` replay reads.
    #[cold]
    #[inline(never)]
    fn record_edge(&self, op: &CafOp, exit: bool) {
        use caf_trace::{instant, instant_d};
        let owner = Some(op.target.unwrap_or_else(|| self.this_image()));
        let word = op.word.unwrap_or(0);
        let access = |write, disp, len| {
            let rec = if write { Op::Store } else { Op::Load };
            instant_d(rec, owner, len, op.region, Some(disp));
        };
        match (op.edge, exit) {
            (Edge::Read | Edge::Write, false) => access(matches!(op.edge, Edge::Write), word, op.bytes),
            (Edge::Section { write, elem, stride }, false) => {
                (0..op.bytes / elem).for_each(|i| access(write, word + i * stride, elem));
            }
            (Edge::Send(chan), false) => instant_d(Op::Send, owner, chan as u64, None, Some(word)),
            (Edge::Recv(chan), false) => instant_d(Op::Recv, None, chan as u64, None, Some(word)),
            (Edge::Round(_) | Edge::Free(_), false) => {
                instant_d(Op::RoundEnter, None, 0, None, Some(word));
            }
            (Edge::Round(members) | Edge::Free(members), true) => {
                instant_d(Op::RoundExit, None, members as u64, None, Some(word));
                if matches!(op.edge, Edge::Free(_)) {
                    instant(Op::RegionFree, None, 0, op.region);
                }
            }
            (Edge::Failed(failed), false) => instant(Op::FailureSeen, Some(failed), 0, None),
            (_, true) | (Edge::None, _) => {}
        }
    }
}
