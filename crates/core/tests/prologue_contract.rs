//! The operation prologue's contract (DESIGN.md §3.2), table-driven like
//! the two substrate contracts: every public data, event, collective,
//! finish/ship and aggregation operation, run in a two-image job on both
//! substrates, with what it leaves in the three instruments pinned — the
//! happens-before edges the sanitizer is told, the caf-layer trace
//! records, the ledger rows — and the order they interleave in: entry
//! edge, span opens, body (with its sub-operations' edges and records),
//! span closes, exit edge. A `_stat` call that reports a failed image
//! must close its span and its collective round like any other.
//!
//! What is *not* pinned here: substrate records under a span (`RmaPut`,
//! `WinFlush`, ... — the substrate contracts own those), `Coarray2d`
//! (every method is one of the `Coarray` rows) and the `co_*` intrinsics
//! (each is `allreduce` or `broadcast`).
//!
//! The check and trace sessions see only the jobs this test's thread
//! launches, so nothing else in the process adds to what is pinned.

use caf::{
    AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, Event, Image, Section, StatCat,
    SubstrateKind, Team,
};
use caf_check::{CheckConfig, CheckSession, HbEdge, NS_AGG, NS_EVENT, NS_SHIP};
use caf_trace::{EventKind, Op, Session, TraceConfig};

const P: usize = 2;

/// Matches any id, token or size: ship slots, batch tokens and encoded
/// batch sizes are the runtime's business.
const ANY: u64 = u64::MAX - 1;

/// One entry of an image's merged timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// The sanitizer was told this edge.
    Edge(HbEdge),
    /// A span opened: `(op, target, bytes, window, disp)`.
    Open(Op, Option<usize>, u64, Option<u64>, Option<u64>),
    Close(Op),
    Instant(Op, Option<usize>, u64, Option<u64>, Option<u64>),
}
use Step::*;

fn access(region: u64, owner: usize, disp: u64, len: u64, write: bool) -> Step {
    Edge(HbEdge::Access { region, owner, disp, len, write })
}

fn send(ns: u8, token: u64, dest: usize) -> Step {
    Edge(HbEdge::Send { ns, token, dest })
}

fn recv(ns: u8, token: u64) -> Step {
    Edge(HbEdge::Recv { ns, token })
}

/// `inner` inside a span of `op`.
fn span(
    op: Op,
    target: Option<usize>,
    bytes: u64,
    window: Option<u64>,
    disp: Option<u64>,
    inner: Vec<Step>,
) -> Vec<Step> {
    let mut v = vec![Open(op, target, bytes, window, disp)];
    v.extend(inner);
    v.push(Close(op));
    v
}

/// `inner` inside one collective round of `team`.
fn round(team: u64, inner: Vec<Step>) -> Vec<Step> {
    let mut v = vec![Edge(HbEdge::CollEnter { team })];
    v.extend(inner);
    v.push(Edge(HbEdge::CollExit { team, members: P }));
    v
}

/// A categorised collective: the round outside, the span inside.
fn collective(op: Op, team: u64) -> Vec<Step> {
    round(team, span(op, None, 0, None, Some(team), vec![]))
}

/// Consuming one post of event `id`.
fn wait(id: u64) -> Vec<Step> {
    span(Op::EventWait, None, 0, None, Some(id), vec![recv(NS_EVENT, id)])
}

fn cat(steps: impl IntoIterator<Item = Vec<Step>>) -> Vec<Step> {
    steps.into_iter().flatten().collect()
}

/// What every image of a job holds while the rows run.
struct Ctx<'a> {
    img: &'a Image,
    w: Team,
    a: Coarray<u64>,
    b: Coarray<u64>,
    /// Posted by image 0 at image 1.
    ev: Event,
    /// Posted by image 1 at image 0.
    back: Event,
    /// Posted by an image at itself (source / data / cofence events).
    own: Event,
}

/// The ids the expectations mention — collectively derived, so the same
/// on every image.
#[derive(Debug, Clone, Copy)]
struct Ids {
    team: u64,
    a: u64,
    b: u64,
    ev: u64,
    back: u64,
    own: u64,
}

impl Ctx<'_> {
    fn ids(&self) -> Ids {
        Ids {
            team: self.w.id(),
            a: self.a.id(),
            b: self.b.id(),
            ev: self.ev.id(),
            back: self.back.id(),
            own: self.own.id(),
        }
    }
}

type Act = fn(&Ctx);

struct Row {
    name: &'static str,
    /// What image 0 and image 1 do.
    acts: [Act; 2],
    /// Whose timeline is pinned.
    observe: usize,
    /// Pin only the steps this keeps (rows whose surroundings are
    /// schedule-dependent: `finish` reduces until quiescent).
    only: Option<fn(&Step) -> bool>,
    steps: Vec<Step>,
    /// `(category, calls, accrues time when timed)`; every other category
    /// must not move. Not checked under `only`.
    ledger: Vec<(StatCat, u64, bool)>,
}

fn nop(_: &Ctx) {}

/// A row observed on image 0 in full.
fn row(name: &'static str, acts: [Act; 2], steps: Vec<Step>, ledger: Vec<(StatCat, u64, bool)>) -> Row {
    Row { name, acts, observe: 0, only: None, steps, ledger }
}

/// A collective both images run the same way.
fn both(name: &'static str, act: Act, steps: Vec<Step>, ledger: Vec<(StatCat, u64, bool)>) -> Row {
    row(name, [act, act], steps, ledger)
}

fn is_ship(s: &Step) -> bool {
    matches!(
        s,
        Instant(Op::Ship, ..)
            | Edge(HbEdge::Send { ns: NS_SHIP, .. })
            | Edge(HbEdge::Recv { ns: NS_SHIP, .. })
    )
}

fn is_batch(s: &Step) -> bool {
    matches!(
        s,
        Instant(Op::AggDrain, ..)
            | Edge(HbEdge::Send { ns: NS_AGG, .. })
            | Edge(HbEdge::Recv { ns: NS_AGG, .. })
    )
}

/// Data, event, collective and finish/ship operations, aggregation off.
fn table(kind: SubstrateKind, id: Ids) -> Vec<Row> {
    use StatCat::*;
    let mpi = kind == SubstrateKind::Mpi;
    let mut rows = vec![
        // ----- blocking data operations --------------------------------
        row(
            "Coarray::write",
            [|c| c.a.write(c.img, 1, 1, &[7, 8]), nop],
            cat([
                vec![access(id.a, 1, 8, 16, true)],
                span(Op::CoarrayWrite, Some(1), 16, Some(id.a), Some(8), vec![]),
            ]),
            vec![(CoarrayWrite, 1, true)],
        ),
        row(
            "Coarray::read",
            [
                |c| {
                    let mut out = [0u64; 2];
                    c.a.read(c.img, 1, 1, &mut out);
                    assert_eq!(out, [7, 8]);
                },
                nop,
            ],
            cat([
                vec![access(id.a, 1, 8, 16, false)],
                span(Op::CoarrayRead, Some(1), 16, Some(id.a), Some(8), vec![]),
            ]),
            vec![(CoarrayRead, 1, true)],
        ),
        // One access per element (stride gaps are not claimed), one span
        // for the payload.
        row(
            "Coarray::write_section",
            [|c| c.a.write_section(c.img, 1, Section::new(1, 3, 4), &[1, 2, 3]), nop],
            cat([
                vec![
                    access(id.a, 1, 8, 8, true),
                    access(id.a, 1, 40, 8, true),
                    access(id.a, 1, 72, 8, true),
                ],
                span(Op::CoarrayWrite, Some(1), 24, Some(id.a), Some(8), vec![]),
            ]),
            vec![(CoarrayWrite, 1, true)],
        ),
        row(
            "Coarray::read_section",
            [
                |c| {
                    let mut out = [0u64; 3];
                    c.a.read_section(c.img, 1, Section::new(1, 3, 4), &mut out);
                    assert_eq!(out, [1, 2, 3]);
                },
                nop,
            ],
            cat([
                vec![
                    access(id.a, 1, 8, 8, false),
                    access(id.a, 1, 40, 8, false),
                    access(id.a, 1, 72, 8, false),
                ],
                span(Op::CoarrayRead, Some(1), 24, Some(id.a), Some(8), vec![]),
            ]),
            vec![(CoarrayRead, 1, true)],
        ),
        // Local accesses: the edge and nothing else.
        row(
            "Coarray::local_write",
            [|c| c.a.local_write(c.img, 2, &[1, 2, 3]), nop],
            vec![access(id.a, 0, 16, 24, true)],
            vec![],
        ),
        row(
            "Coarray::local_read",
            [
                |c| {
                    let mut out = [0u64; 3];
                    c.a.local_read(c.img, 2, &mut out);
                    assert_eq!(out, [1, 2, 3]);
                },
                nop,
            ],
            vec![access(id.a, 0, 16, 24, false)],
            vec![],
        ),
        // ----- asynchronous copies -------------------------------------
        // The access is a sub-operation inside the CopyAsync span. (Each
        // put has its own element: nothing flushes between rows, and the
        // epoch checker is listening.)
        row(
            "copy_async_put, no events",
            [|c| c.img.copy_async_put(&c.a, 1, 0, &[5], AsyncOpts::none()), nop],
            span(Op::CopyAsync, None, 0, None, None, vec![access(id.a, 1, 0, 8, true)]),
            vec![(CopyAsync, 1, true)],
        ),
        row(
            "copy_async_put, source event",
            [
                |c| {
                    c.img.copy_async_put(&c.a, 1, 3, &[5], AsyncOpts::with_src(c.own));
                    c.img.event_wait(&c.own);
                },
                nop,
            ],
            cat([
                span(
                    Op::CopyAsync,
                    None,
                    0,
                    None,
                    None,
                    vec![access(id.a, 1, 24, 8, true), send(NS_EVENT, id.own, 0)],
                ),
                wait(id.own),
            ]),
            vec![(CopyAsync, 1, true), (EventWait, 1, true)],
        ),
        row(
            "copy_async_put, destination event",
            [
                |c| c.img.copy_async_put(&c.a, 1, 4, &[6], AsyncOpts::with_dst(c.ev)),
                |c| c.img.event_wait(&c.ev),
            ],
            span(
                Op::CopyAsync,
                None,
                0,
                None,
                None,
                vec![access(id.a, 1, 32, 8, true), send(NS_EVENT, id.ev, 1)],
            ),
            vec![(CopyAsync, 1, true)],
        ),
        row(
            "copy_async_get, source event",
            [
                |c| {
                    let got = c.img.copy_async_get(&c.a, 1, 1, 2, AsyncOpts::with_src(c.own));
                    assert_eq!(got.len(), 2);
                    c.img.event_wait(&c.own);
                },
                nop,
            ],
            cat([
                span(
                    Op::CopyAsync,
                    None,
                    0,
                    None,
                    None,
                    vec![access(id.a, 1, 8, 16, false), send(NS_EVENT, id.own, 0)],
                ),
                wait(id.own),
            ]),
            vec![(CopyAsync, 1, true), (EventWait, 1, true)],
        ),
        // The fetch is a `copy_async_get`; the store half runs outside
        // any span.
        row(
            "copy_async_between",
            [
                |c| c.img.copy_async_between(&c.a, 1, 1, &c.b, 1, 0, 2, AsyncOpts::none()),
                nop,
            ],
            cat([
                span(Op::CopyAsync, None, 0, None, None, vec![access(id.a, 1, 8, 16, false)]),
                vec![access(id.b, 1, 0, 16, true)],
            ]),
            vec![(CopyAsync, 1, true)],
        ),
        row(
            "cofence_with_event",
            [
                |c| {
                    c.img.cofence_with_event(&c.own);
                    c.img.event_wait(&c.own);
                },
                nop,
            ],
            cat([vec![send(NS_EVENT, id.own, 0)], wait(id.own)]),
            vec![(EventWait, 1, true)],
        ),
        row(
            "team_broadcast_async, data event",
            [
                |c| {
                    let mut data = vec![3u64, 4];
                    c.img.team_broadcast_async(&c.w, 0, &mut data, Some(c.own), None);
                    c.img.event_wait(&c.own);
                },
                |c| {
                    let mut data = Vec::<u64>::new();
                    c.img.team_broadcast_async(&c.w, 0, &mut data, None, None);
                    assert_eq!(data, [3, 4]);
                },
            ],
            cat([
                collective(Op::Reduction, id.team),
                vec![send(NS_EVENT, id.own, 0)],
                wait(id.own),
            ]),
            vec![(Reduction, 1, true), (EventWait, 1, true)],
        ),
        // ----- events ----------------------------------------------------
        // The post is a sub-operation: its send edge is recorded after the
        // release barrier, right before the message leaves.
        row(
            "event_notify",
            [|c| c.img.event_notify(&c.w, &c.ev, 1), |c| c.img.event_wait(&c.ev)],
            span(
                Op::EventNotify,
                Some(1),
                0,
                None,
                Some(id.ev),
                vec![send(NS_EVENT, id.ev, 1)],
            ),
            vec![(EventNotify, 1, true)],
        ),
        row(
            "event_wait",
            [|c| c.img.event_wait(&c.back), |c| c.img.event_notify(&c.w, &c.back, 0)],
            wait(id.back),
            vec![(EventWait, 1, true)],
        ),
        // No post, no receive edge.
        row(
            "event_trywait, nothing posted",
            [|c| assert!(!c.img.event_trywait(&c.ev)), nop],
            span(Op::EventWait, None, 0, None, Some(id.ev), vec![]),
            vec![(EventWait, 1, true)],
        ),
        row(
            "event_notify to self + event_trywait",
            [
                |c| {
                    c.img.event_notify(&c.w, &c.own, 0);
                    assert!(c.img.event_trywait(&c.own));
                },
                nop,
            ],
            cat([
                span(
                    Op::EventNotify,
                    Some(0),
                    0,
                    None,
                    Some(id.own),
                    vec![send(NS_EVENT, id.own, 0)],
                ),
                wait(id.own),
            ]),
            vec![(EventNotify, 1, true), (EventWait, 1, true)],
        ),
        both(
            "sync_images",
            |c| c.img.sync_images(&c.w, &[1 - c.img.this_image()]),
            cat([
                span(Op::EventNotify, Some(1), 0, None, Some(ANY), vec![send(NS_EVENT, ANY, 1)]),
                wait(ANY),
            ]),
            vec![(EventNotify, 1, true), (EventWait, 1, true)],
        ),
        // ----- collectives -----------------------------------------------
        both(
            "barrier",
            |c| c.img.barrier(&c.w),
            collective(Op::Barrier, id.team),
            vec![(Barrier, 1, true)],
        ),
        both(
            "sync_all_stat",
            |c| assert!(c.img.sync_all_stat().is_ok()),
            collective(Op::Barrier, id.team),
            vec![(Barrier, 1, true)],
        ),
        both(
            "broadcast",
            |c| c.img.broadcast(&c.w, 1, &mut vec![c.img.this_image() as u64]),
            collective(Op::Reduction, id.team),
            vec![(Reduction, 1, true)],
        ),
        both(
            "reduce",
            |c| drop(c.img.reduce(&c.w, 0, &[1u64], |x, y| x + y)),
            collective(Op::Reduction, id.team),
            vec![(Reduction, 1, true)],
        ),
        both(
            "allreduce",
            |c| assert_eq!(c.img.allreduce(&c.w, &[1u64], |x, y| x + y), [2]),
            collective(Op::Reduction, id.team),
            vec![(Reduction, 1, true)],
        ),
        both(
            "allgather",
            |c| assert_eq!(c.img.allgather(&c.w, &[c.img.this_image() as u64]), [0, 1]),
            collective(Op::Reduction, id.team),
            vec![(Reduction, 1, true)],
        ),
        both(
            "allgatherv",
            |c| assert_eq!(c.img.allgatherv(&c.w, &vec![9u64; c.img.this_image()]), [9]),
            collective(Op::Reduction, id.team),
            vec![(Reduction, 1, true)],
        ),
        both(
            "alltoall",
            |c| assert_eq!(c.img.alltoall(&c.w, &[10u64, 11], 1).len(), 2),
            collective(Op::Alltoall, id.team),
            vec![(Alltoall, 1, true)],
        ),
        // A round, but no category of its own.
        both(
            "team_split",
            |c| drop(c.img.team_split(&c.w, 0, 0)),
            round(id.team, vec![]),
            vec![],
        ),
        both(
            "team_reform, nobody failed",
            |c| assert!(c.img.team_reform(&c.w).1.is_ok()),
            collective(Op::Barrier, ANY),
            vec![(Barrier, 1, true)],
        ),
        // CAF-MPI allocates inside `MPI_Win_allocate` and frees inside
        // `win_free`; CAF-GASNet allgathers offsets through the portable
        // layer and frees behind a portable barrier. Either way the free
        // is one round that ends by dropping the region's history.
        both(
            "coarray_alloc + coarray_free",
            |c| {
                let tmp: Coarray<u64> = c.img.coarray_alloc(&c.w, 1);
                c.img.coarray_free(&c.w, tmp);
            },
            if mpi {
                cat([round(id.team, vec![]), vec![Edge(HbEdge::RegionFree { region: ANY })]])
            } else {
                cat([
                    collective(Op::Reduction, id.team),
                    round(id.team, collective(Op::Barrier, id.team)),
                    vec![Edge(HbEdge::RegionFree { region: ANY })],
                ])
            },
            if mpi { vec![] } else { vec![(Reduction, 1, true), (Barrier, 1, true)] },
        ),
        // ----- finish and function shipping ------------------------------
        // Nested operations are counted; their time stays with `finish`.
        both(
            "finish, nothing shipped",
            FINISH,
            span(Op::Finish, None, 0, None, None, collective(Op::Reduction, id.team)),
            vec![(Finish, 1, true), (Reduction, 1, false)],
        ),
        both(
            "finish_fast",
            |c| c.img.finish_fast(&c.w, |_| ()),
            span(Op::Finish, None, 0, None, None, collective(Op::Barrier, id.team)),
            vec![(Finish, 1, true), (Barrier, 1, false)],
        ),
        Row {
            name: "ship, shipper's side",
            acts: [SHIP, SHIP],
            observe: 0,
            only: Some(is_ship),
            steps: vec![Instant(Op::Ship, Some(1), 0, None, Some(ANY)), send(NS_SHIP, ANY, 1)],
            ledger: vec![],
        },
        Row {
            name: "ship, executor's side",
            acts: [SHIP, SHIP],
            observe: 1,
            only: Some(is_ship),
            steps: vec![recv(NS_SHIP, ANY)],
            ledger: vec![],
        },
        // Runs inline: no message, no edge.
        row(
            "ship to self",
            [|c| c.img.ship(&c.w, 0, |_| ()), nop],
            vec![],
            vec![],
        ),
    ];
    if mpi {
        // One-sided atomics go straight to the substrate: no edge, no
        // span, no ledger row (the substrate's own records are its
        // contract's).
        rows.push(row(
            "Coarray::fetch_add + compare_and_swap",
            [
                |c| {
                    c.b.fetch_add(c.img, 1, 5, 1u64);
                    c.b.compare_and_swap(c.img, 1, 5, 1u64, 2u64);
                },
                nop,
            ],
            vec![],
            vec![],
        ));
    }
    rows
}

/// Image 0 ships an empty function to image 1 inside a `finish`.
const SHIP: Act = |c| {
    c.img.finish(&c.w, |img| {
        if img.this_image() == 0 {
            img.ship(&c.w, 1, |_| ());
        }
    })
};

const FINISH: Act = |c| c.img.finish(&c.w, |_| ());

/// The aggregation operations (`CafConfig::agg` on), in an order where
/// each row drains what the one before parked.
fn agg_table(_: SubstrateKind, id: Ids) -> Vec<Row> {
    use StatCat::*;
    vec![
        // Parking a record: a trace instant, nothing else.
        row(
            "agg_accumulate_xor",
            [|c| c.img.agg_accumulate_xor(&c.a, 1, 3, 0xff), nop],
            vec![Instant(Op::AggEnqueue, Some(1), 8, Some(id.a), Some(24))],
            vec![],
        ),
        // The release drains the bucket: one batch, one send edge on the
        // batch channel, ahead of the post.
        row(
            "event_notify draining one record",
            [|c| c.img.event_notify(&c.w, &c.ev, 1), |c| c.img.event_wait(&c.ev)],
            span(
                Op::EventNotify,
                Some(1),
                0,
                None,
                Some(id.ev),
                vec![
                    Instant(Op::AggDrain, Some(1), ANY, None, Some(1)),
                    send(NS_AGG, ANY, 1),
                    send(NS_EVENT, id.ev, 1),
                ],
            ),
            vec![(EventNotify, 1, true)],
        ),
        // The unpacking image joins the batch before applying it, then
        // consumes the post that followed it on the FIFO channel.
        row(
            "event_wait receiving a batch",
            [
                |c| c.img.event_wait(&c.back),
                |c| {
                    c.img.agg_accumulate_add(&c.a, 0, 3, 1);
                    c.img.event_notify(&c.w, &c.back, 0);
                },
            ],
            span(
                Op::EventWait,
                None,
                0,
                None,
                Some(id.back),
                vec![recv(NS_AGG, ANY), recv(NS_EVENT, id.back)],
            ),
            vec![(EventWait, 1, true)],
        ),
        // A small case-1 put parks a record instead of issuing a put.
        row(
            "copy_async_put, coalesced",
            [|c| c.img.copy_async_put(&c.a, 1, 0, &[5], AsyncOpts::none()), nop],
            span(
                Op::CopyAsync,
                None,
                0,
                None,
                None,
                vec![
                    access(id.a, 1, 0, 8, true),
                    Instant(Op::AggEnqueue, Some(1), 8, Some(id.a), Some(0)),
                ],
            ),
            vec![(CopyAsync, 1, true)],
        ),
        Row {
            name: "finish draining one record",
            acts: [FINISH, FINISH],
            observe: 0,
            only: Some(is_batch),
            steps: vec![Instant(Op::AggDrain, Some(1), ANY, None, Some(1)), send(NS_AGG, ANY, 1)],
            ledger: vec![],
        },
    ]
}

/// Image 1 is dead: every `_stat` call delivers the status inside its
/// span (trace instant, then the sanitizer learns the death), closes the
/// span, and — for a collective — leaves the round.
fn failure_table(_: SubstrateKind, id: Ids) -> Vec<Row> {
    use StatCat::*;
    let delivered = || {
        vec![
            Instant(Op::StatDelivered, None, 1, None, None),
            Edge(HbEdge::ImageFailed { failed: 1 }),
        ]
    };
    vec![
        row(
            "barrier_stat, member dead",
            [|c| assert_eq!(c.img.barrier_stat(&c.w).failed(), [1]), nop],
            round(id.team, span(Op::Barrier, None, 0, None, Some(id.team), delivered())),
            vec![(Barrier, 1, true)],
        ),
        row(
            "allreduce_stat, member dead",
            [
                |c| {
                    let stat = c.img.allreduce_stat(&c.w, &[1u64], |x, y| x + y).unwrap_err();
                    assert_eq!(stat.failed(), [1]);
                },
                nop,
            ],
            round(id.team, span(Op::Reduction, None, 0, None, Some(id.team), delivered())),
            vec![(Reduction, 1, true)],
        ),
        row(
            "event_wait_stat, an image dead",
            [|c| assert_eq!(c.img.event_wait_stat(&c.back).failed(), [1]), nop],
            span(Op::EventWait, None, 0, None, Some(id.back), delivered()),
            vec![(EventWait, 1, true)],
        ),
    ]
}

/// What one image measured around one row: the wall-clock window and the
/// ledger's `(seconds, calls)` per category before and after.
struct Window {
    t: (u64, u64),
    ledger: [Vec<(StatCat, f64, u64)>; 2],
}

/// Run `rows` on a `P`-image job of `cfg` under armed check and trace
/// sessions, then hold every row's observed timeline and ledger delta
/// against its expectation. With `kill`, image 1 dies before the first
/// row and rows run unseparated (there is nobody to synchronise with).
fn run(what: &str, cfg: CafConfig, rows: fn(SubstrateKind, Ids) -> Vec<Row>, kill: bool) {
    let trace = Session::start(TraceConfig {
        stall_threshold: None,
        ..TraceConfig::default()
    })
    .expect("trace session");
    let check = CheckSession::start(CheckConfig::default()).expect("check session");

    let kind = cfg.substrate;
    let out = CafUniverse::run_with_config_ft(P, cfg, |img| {
        let w = img.team_world();
        let (ev, back, own) = (img.event_alloc(&w), img.event_alloc(&w), img.event_alloc(&w));
        let a: Coarray<u64> = img.coarray_alloc(&w, 16);
        let b: Coarray<u64> = img.coarray_alloc(&w, 16);
        let c = Ctx { img, w, a, b, ev, back, own };
        let ids = c.ids();
        if kill && img.this_image() == 1 {
            img.fail_image();
        }
        let windows: Vec<Window> = rows(kind, ids)
            .iter()
            .map(|row| {
                if !kill {
                    img.sync_all();
                }
                let before = img.stats().snapshot();
                let t0 = caf_trace::now_ns();
                (row.acts[img.this_image()])(&c);
                let t1 = caf_trace::now_ns();
                Window { t: (t0, t1), ledger: [before, img.stats().snapshot()] }
            })
            .collect();
        if !kill {
            img.sync_all();
            img.coarray_free(&c.w, c.b);
            img.coarray_free(&c.w, c.a);
        }
        (ids, windows)
    });
    let report = check.finish();
    let trace = trace.finish();
    assert!(report.violations.is_empty(), "{what}: {}", report.render());
    assert_eq!(trace.dropped_events, 0, "{what}: trace ring wrapped");

    let ids = out[0].as_ref().expect("image 0 survives").0;
    for (i, row) in rows(kind, ids).iter().enumerate() {
        let who = row.observe;
        let win = &out[who].as_ref().expect("observed image survives").1[i];
        let what = format!("{what} / {} (image {who})", row.name);

        let mut got = timeline(&trace, &report.edges, who, win.t);
        if let Some(keep) = row.only {
            got.retain(keep);
        }
        assert_eq!(got.len(), row.steps.len(), "{what}:\n got {got:#?}\nwant {:#?}", row.steps);
        let got: Vec<Step> = got.iter().zip(&row.steps).map(|(g, w)| wildcard(*g, w)).collect();
        assert_eq!(got, row.steps, "{what}");

        if row.only.is_some() {
            continue;
        }
        for (before, after) in win.ledger[0].iter().zip(&win.ledger[1]) {
            let (cat, secs, calls) = (after.0, after.1 - before.1, after.2 - before.2);
            let want = row.ledger.iter().find(|l| l.0 == cat);
            assert_eq!(calls, want.map_or(0, |l| l.1), "{what}: {cat:?} calls");
            // A small read, write or asynchronous copy is timed by sample:
            // the first call of its category in the universe accrues, a
            // later one only on the ledger's stride, which no table reaches.
            let sampled_out = before.2 > 0
                && matches!(cat, StatCat::CoarrayWrite | StatCat::CoarrayRead | StatCat::CopyAsync);
            let accrues = want.is_some_and(|l| l.2) && !sampled_out;
            assert_eq!(secs > 0.0, accrues, "{what}: {cat:?} accrued {secs} s");
        }
    }
}

/// Image `who`'s edges and caf-layer trace records inside `(t0, t1)`,
/// merged by timestamp. Both instruments read `caf_trace::now_ns`; on a
/// tie (a coarse clock) the prologue's own order decides.
fn timeline(
    trace: &caf_trace::Trace,
    edges: &[(u64, usize, HbEdge)],
    who: usize,
    (t0, t1): (u64, u64),
) -> Vec<Step> {
    let mut at: Vec<(u64, u8, Step)> = Vec::new();
    for &(t, img, edge) in edges {
        if img == who && (t0..=t1).contains(&t) {
            let exit = matches!(edge, HbEdge::CollExit { .. } | HbEdge::RegionFree { .. });
            at.push((t, if exit { 4 } else { 0 }, Edge(edge)));
        }
    }
    for e in &trace.events {
        let core = e.op.cat().is_some()
            || matches!(
                e.op,
                Op::Ship | Op::AggEnqueue | Op::AggDrain | Op::AggForward | Op::StatDelivered
            );
        if e.image != who || !core || !(t0..=t1).contains(&e.t0_ns) {
            continue;
        }
        match e.kind {
            EventKind::Span => {
                at.push((e.t0_ns, 1, Open(e.op, e.target, e.bytes, e.window, e.disp)));
                at.push((e.t0_ns + e.dur_ns, 3, Close(e.op)));
            }
            EventKind::Instant => {
                at.push((e.t0_ns, 2, Instant(e.op, e.target, e.bytes, e.window, e.disp)));
            }
        }
    }
    at.sort_by_key(|&(t, class, _)| (t, class));
    at.into_iter().map(|(_, _, step)| step).collect()
}

/// `got`, with every field `want` leaves open set to [`ANY`].
fn wildcard(got: Step, want: &Step) -> Step {
    let id = |g: u64, w: u64| if w == ANY { ANY } else { g };
    let word = |g: Option<u64>, w: Option<u64>| if w == Some(ANY) { w } else { g };
    match (got, *want) {
        (Open(op, t, bytes, win, disp), Open(_, _, _, _, wd)) => Open(op, t, bytes, win, word(disp, wd)),
        (Instant(op, t, bytes, win, disp), Instant(_, _, wb, _, wd)) => {
            Instant(op, t, id(bytes, wb), win, word(disp, wd))
        }
        (Edge(HbEdge::Send { ns, token, dest }), Edge(HbEdge::Send { token: w, .. })) => {
            Edge(HbEdge::Send { ns, token: id(token, w), dest })
        }
        (Edge(HbEdge::Recv { ns, token }), Edge(HbEdge::Recv { token: w, .. })) => {
            Edge(HbEdge::Recv { ns, token: id(token, w) })
        }
        (Edge(HbEdge::CollEnter { team }), Edge(HbEdge::CollEnter { team: w })) => {
            Edge(HbEdge::CollEnter { team: id(team, w) })
        }
        (Edge(HbEdge::CollExit { team, members }), Edge(HbEdge::CollExit { team: w, .. })) => {
            Edge(HbEdge::CollExit { team: id(team, w), members })
        }
        (Edge(HbEdge::RegionFree { region }), Edge(HbEdge::RegionFree { region: w })) => {
            Edge(HbEdge::RegionFree { region: id(region, w) })
        }
        _ => got,
    }
}

#[test]
fn every_operation_meets_the_prologue_contract() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let agg = CafConfig { agg: AggConfig::on(), ..CafConfig::on(kind) };
        run(&format!("{kind:?}"), CafConfig::on(kind), table, false);
        run(&format!("{kind:?} aggregating"), agg, agg_table, false);
        run(&format!("{kind:?} degraded"), CafConfig::on(kind), failure_table, true);
    }
}
