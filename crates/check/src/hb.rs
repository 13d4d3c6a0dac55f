//! The vector-clock happens-before race detector (CAF layer).
//!
//! Each image carries a vector clock advanced by the runtime's
//! synchronization edges:
//!
//! - **event notify → event wait**: every post pushes a snapshot of the
//!   notifier's clock onto a FIFO per `(event id, destination image)`
//!   channel; every successful wait pops one and joins it. The
//!   destination is part of the key because the runtime's post counters
//!   live at the *receiver* — one event id notified to several images is
//!   several independent counters, and collapsing them would mispair
//!   snapshots. FIFO pairing within a channel is the *minimal*
//!   guaranteed edge for counting events (a waiter can only rely on
//!   "some post happened", and the oldest unconsumed post is the one
//!   whose increment made the count observable), so it never invents an
//!   edge.
//! - **team collectives** (barrier, reductions, `finish`'s termination
//!   allreduce, `team_split`): round `n` of a team joins every member's
//!   entry snapshot at exit. Treating one-to-all collectives as full
//!   joins adds edges that real broadcast semantics do not promise —
//!   that can only *mask* races (false negative), never invent one.
//! - **function shipping**: the shipper's clock at `ship` is joined by
//!   the executor before the shipped closure runs (token = the globally
//!   unique ship-registry slot).
//!
//! Coarray accesses are checked FastTrack-style against a bounded
//! per-`(region, owner)` access history: a new access races a recorded
//! one when the two images differ, at least one side writes, the byte
//! ranges overlap, and the recorded access is not in the new access's
//! causal past. Same-image program order supersedes older records, so
//! the history stays small for the common rewrite-in-place patterns.

use std::collections::{HashMap, VecDeque};

use caf_trace::Chan;

use crate::report::{ByteRange, Violation, ViolationKind};

/// Channel namespace: counting-event posts.
pub const NS_EVENT: u8 = Chan::Event as u8;
/// Channel namespace: function-shipping slots.
pub const NS_SHIP: u8 = Chan::Ship as u8;
/// Channel namespace: aggregation batches (one token per drained
/// bucket; the batch carries the union of its records' edges).
pub const NS_AGG: u8 = Chan::Batch as u8;

/// Ceiling on queued unconsumed snapshots per channel.
const MAX_CHANNEL: usize = 1 << 16;

/// One happens-before edge of the CAF layer: what the replay reads off a
/// trace record of core's operation prologue, and a row of
/// [`crate::Report::edges`]. All ranks are global image indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbEdge {
    /// A synchronization send (event post, ship dispatch, batch drain)
    /// on channel `(ns, token)` towards image `dest` — the image whose
    /// counter or run queue the send targets, part of the channel key.
    Send {
        /// Channel namespace ([`NS_EVENT`], [`NS_SHIP`], [`NS_AGG`]).
        ns: u8,
        /// Event id, ship slot or batch token.
        token: u64,
        /// Destination image.
        dest: usize,
    },
    /// The matching receive (consumed post, ship execution, batch
    /// unpack) by the reporting image.
    Recv {
        /// Channel namespace.
        ns: u8,
        /// Event id, ship slot or batch token.
        token: u64,
    },
    /// The image enters its next collective round on `team`.
    CollEnter {
        /// Team id.
        team: u64,
    },
    /// The image leaves the round it last entered; `members` (the team
    /// size) retires the round once everyone has left.
    CollExit {
        /// Team id.
        team: u64,
        /// Team size.
        members: usize,
    },
    /// A coarray access to `[disp, disp + len)` of `owner`'s part.
    Access {
        /// Region (window) id.
        region: u64,
        /// Image whose part is accessed.
        owner: usize,
        /// First byte.
        disp: u64,
        /// Bytes touched.
        len: u64,
        /// Store (`true`) or load.
        write: bool,
    },
    /// The region was freed: its shadow history goes (ids are recycled).
    RegionFree {
        /// Region (window) id.
        region: u64,
    },
    /// The image observed, through a delivered `Stat`, that `failed`
    /// died: edges to a failed image terminate.
    ImageFailed {
        /// The dead image.
        failed: usize,
    },
}

type Clock = Vec<u64>;

fn join(a: &mut Clock, b: &Clock) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        *x = (*x).max(y);
    }
}

fn component(c: &Clock, i: usize) -> u64 {
    c.get(i).copied().unwrap_or(0)
}

#[derive(Debug, Clone, Copy)]
struct AccessRec {
    img: usize,
    /// The accessor's own clock component at access time (>= 1).
    at: u64,
    range: ByteRange,
    write: bool,
}

#[derive(Debug, Default)]
struct CollRound {
    snaps: Vec<Clock>,
    exits: usize,
}

/// One race detector per replay.
#[derive(Debug)]
pub struct RaceDetector {
    clocks: Vec<Clock>,
    /// FIFO of sender snapshots per `(namespace, token, destination)`
    /// channel.
    chans: HashMap<(u8, u64, usize), VecDeque<Clock>>,
    /// In-flight collective rounds per `(team, round)`.
    colls: HashMap<(u64, u64), CollRound>,
    enter_rounds: HashMap<(u64, usize), u64>,
    exit_rounds: HashMap<(u64, usize), u64>,
    /// Access history per `(region, owner)`.
    hist: HashMap<(u64, usize), Vec<AccessRec>>,
    history_limit: usize,
}

impl RaceDetector {
    /// Detector remembering at most `history_limit` accesses per
    /// `(region, owner)` shadow cell (oldest forgotten first; forgetting
    /// can only cause false negatives).
    pub fn new(history_limit: usize) -> Self {
        RaceDetector {
            clocks: Vec::new(),
            chans: HashMap::new(),
            colls: HashMap::new(),
            enter_rounds: HashMap::new(),
            exit_rounds: HashMap::new(),
            hist: HashMap::new(),
            history_limit: history_limit.max(2),
        }
    }

    /// Grow state to cover image `img`; a fresh clock starts with its own
    /// component at 1 so the first access is not vacuously ordered
    /// before everything (all other clocks hold 0 for it).
    fn ensure(&mut self, img: usize) {
        if self.clocks.len() <= img {
            self.clocks.resize_with(img + 1, Clock::new);
        }
        if self.clocks[img].len() <= img {
            self.clocks[img].resize(img + 1, 0);
        }
        if self.clocks[img][img] == 0 {
            self.clocks[img][img] = 1;
        }
    }

    fn tick(&mut self, img: usize) {
        self.clocks[img][img] += 1;
    }

    /// Apply one reported edge of image `img`.
    pub fn apply(&mut self, img: usize, edge: HbEdge, out: &mut Vec<Violation>) {
        match edge {
            HbEdge::Send { ns, token, dest } => self.send(img, ns, token, dest),
            HbEdge::Recv { ns, token } => self.recv(img, ns, token),
            HbEdge::CollEnter { team } => self.collective_enter(img, team),
            HbEdge::CollExit { team, members } => self.collective_exit(img, team, members),
            HbEdge::Access { region, owner, disp, len, write } => {
                self.access(img, region, owner, ByteRange::new(disp, len), write, out);
            }
            HbEdge::RegionFree { region } => self.region_free(region),
            HbEdge::ImageFailed { failed } => self.image_failed(failed),
        }
    }

    /// A synchronization send by `img` on channel `(ns, token)` towards
    /// image `dest` (the image whose counter the post increments).
    pub fn send(&mut self, img: usize, ns: u8, token: u64, dest: usize) {
        self.ensure(img);
        let q = self.chans.entry((ns, token, dest)).or_default();
        if q.len() >= MAX_CHANNEL {
            q.pop_front();
        }
        q.push_back(self.clocks[img].clone());
        self.tick(img);
    }

    /// A matching receive: join the oldest unconsumed snapshot sent
    /// towards `img`. Receives with no queued snapshot (a post already
    /// consumed) are no-ops.
    pub fn recv(&mut self, img: usize, ns: u8, token: u64) {
        self.ensure(img);
        if let Some(snap) = self
            .chans
            .get_mut(&(ns, token, img))
            .and_then(VecDeque::pop_front)
        {
            join(&mut self.clocks[img], &snap);
        }
    }

    /// `img` enters its next collective round on `team`.
    pub fn collective_enter(&mut self, img: usize, team: u64) {
        self.ensure(img);
        let r = self.enter_rounds.entry((team, img)).or_insert(0);
        let round = *r;
        *r += 1;
        let snap = self.clocks[img].clone();
        self.colls.entry((team, round)).or_default().snaps.push(snap);
        self.tick(img);
    }

    /// `img` exits the collective round it last entered on `team`,
    /// joining every member's entry snapshot. `members` is the team
    /// size, used to retire the round once everyone has left.
    pub fn collective_exit(&mut self, img: usize, team: u64, members: usize) {
        self.ensure(img);
        let r = self.exit_rounds.entry((team, img)).or_insert(0);
        let round = *r;
        *r += 1;
        let done = if let Some(c) = self.colls.get_mut(&(team, round)) {
            c.exits += 1;
            let snaps = std::mem::take(&mut c.snaps);
            for s in &snaps {
                join(&mut self.clocks[img], s);
            }
            c.snaps = snaps;
            c.exits >= members
        } else {
            false
        };
        if done {
            self.colls.remove(&(team, round));
        }
    }

    /// A coarray access by `img` to `range` of `owner`'s part of
    /// `region`; flags every recorded conflicting access not in this
    /// access's causal past.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        img: usize,
        region: u64,
        owner: usize,
        range: ByteRange,
        write: bool,
        out: &mut Vec<Violation>,
    ) {
        if range.is_empty() {
            return;
        }
        self.ensure(img);
        let clock = &self.clocks[img];
        let hist = self.hist.entry((region, owner)).or_default();
        for rec in hist.iter() {
            if rec.img == img || !(write || rec.write) || !rec.range.overlaps(&range) {
                continue;
            }
            if component(clock, rec.img) < rec.at {
                out.push(Violation {
                    kind: ViolationKind::CoarrayRace,
                    window: Some(region),
                    image: img,
                    other: Some(rec.img),
                    range: Some(rec.range.intersect(&range)),
                    detail: format!(
                        "{} by image {img} races earlier {} by image {} on image {owner}'s \
                         part: no happens-before edge orders them",
                        if write { "write" } else { "read" },
                        if rec.write { "write" } else { "read" },
                        rec.img
                    ),
                });
            }
        }
        // Program order supersedes this image's earlier records that the
        // new access fully covers with equal-or-stronger kind.
        hist.retain(|r| {
            !(r.img == img
                && range.start <= r.range.start
                && r.range.end <= range.end
                && (write || !r.write))
        });
        if hist.len() >= self.history_limit {
            hist.remove(0);
        }
        hist.push(AccessRec {
            img,
            at: component(&self.clocks[img], img),
            range,
            write,
        });
    }

    /// The region was freed: drop its shadow history so a recycled
    /// region id never inherits stale accesses.
    pub fn region_free(&mut self, region: u64) {
        self.hist.retain(|&(r, _), _| r != region);
    }

    /// Image `failed` died: happens-before edges to a failed image
    /// terminate. Its recorded accesses are purged (a survivor's
    /// post-`Stat` access can no longer race a dead image's past — the
    /// stat delivery is the ordering surrogate) and channel snapshots
    /// destined for it are dropped (they will never be received).
    /// Idempotent; called once per observing survivor.
    pub fn image_failed(&mut self, failed: usize) {
        for recs in self.hist.values_mut() {
            recs.retain(|r| r.img != failed);
        }
        self.chans.retain(|&(_, _, dest), _| dest != failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(d: &mut RaceDetector, img: usize, off: u64, out: &mut Vec<Violation>) {
        d.access(img, 9, 0, ByteRange::new(off, 8), true, out);
    }

    #[test]
    fn unordered_writes_race_and_notify_wait_orders_them() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        w(&mut d, 1, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::CoarrayRace);
        assert_eq!((out[0].image, out[0].other), (1, Some(0)));

        // Same shape with an event edge between: clean.
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        d.send(0, NS_EVENT, 42, 1);
        d.recv(1, NS_EVENT, 42);
        w(&mut d, 1, 0, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reads_never_race_reads_and_disjoint_ranges_never_race() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        d.access(0, 9, 0, ByteRange::new(0, 8), false, &mut out);
        d.access(1, 9, 0, ByteRange::new(0, 8), false, &mut out);
        assert!(out.is_empty());
        w(&mut d, 0, 0, &mut out);
        w(&mut d, 1, 64, &mut out);
        // Image 1's write at 64 does not overlap image 0's at 0 — but
        // image 0's earlier *read* at [0,8) does race image 0's write?
        // No: same image. The only candidate pair is read(1)@[0,8) vs
        // write(0)@[0,8).
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].image, out[0].other), (0, Some(1)));
    }

    #[test]
    fn barrier_round_orders_all_members() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        for img in 0..3 {
            d.collective_enter(img, 5);
        }
        for img in 0..3 {
            d.collective_exit(img, 5, 3);
        }
        w(&mut d, 2, 0, &mut out);
        assert!(out.is_empty(), "write after barrier ordered: {out:?}");
        // Two post-barrier writes by different images with no further
        // edge between them genuinely race.
        w(&mut d, 1, 0, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].image, out[0].other), (1, Some(2)));
    }

    #[test]
    fn ship_edge_orders_shipper_before_executor() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        d.send(0, NS_SHIP, 77, 3);
        d.recv(3, NS_SHIP, 77);
        w(&mut d, 3, 0, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn fifo_pairing_takes_oldest_post() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        d.send(0, NS_EVENT, 1, 2);
        w(&mut d, 1, 8, &mut out);
        d.send(1, NS_EVENT, 1, 2);
        // Waiter joins image 0's (oldest) snapshot: ordered after 0's
        // write but NOT after image 1's.
        d.recv(2, NS_EVENT, 1);
        d.access(2, 9, 0, ByteRange::new(0, 16), true, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].other, Some(1));
    }

    #[test]
    fn region_free_drops_history() {
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        d.region_free(9);
        w(&mut d, 1, 0, &mut out);
        assert!(out.is_empty(), "recycled region id is clean: {out:?}");
    }

    #[test]
    fn failed_image_accesses_stop_racing_survivors() {
        // Image 0 writes, then dies with no ordering edge to image 1.
        // Without the purge the survivor's write would be flagged; the
        // failure notification terminates the HB obligation instead.
        let mut d = RaceDetector::new(1024);
        let mut out = Vec::new();
        w(&mut d, 0, 0, &mut out);
        d.send(0, NS_EVENT, 5, 1); // pending post the survivor never waits on
        d.image_failed(0);
        w(&mut d, 1, 0, &mut out);
        assert!(out.is_empty(), "dead image's past is purged: {out:?}");
        // Survivors still race each other normally afterwards.
        w(&mut d, 2, 0, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].image, out[0].other), (2, Some(1)));
    }
}
