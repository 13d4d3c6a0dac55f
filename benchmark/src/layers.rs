//! The layer-tax ladder: a tight loop around one public call of each
//! layer (layer = crate), from the fabric up to the kernels.
//!
//! One-sided and single-thread loops are time-boxed: batches run until
//! the loop's slice of the budget is used. Two-sided loops (anything
//! with a partner) run a fixed number of batches so both sides agree on
//! the count without extra messages. Every metric is the median of its
//! batches. The ladder thread pins itself to the job CPU, and every
//! thread of every loop inherits that (see `host::Pinning`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf::{
    AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, ExecConfig, ExecMode, FaultPlan,
    GasnetConfig, Image, KillSite, SubstrateKind,
};
use caf_agg::{decode_batch, encode_batch, Aggregator, Record, RecordOp};
use caf_fabric::{Endpoint, Fabric, FabricConfig, Packet, Segment};
use caf_gasnetsim::{Gasnet, GasnetUniverse};
use caf_hpcc::{cgpop, fft, linalg, ra};
use caf_mpisim::{AccOp, Mpi, MpiConfig, Src, Tag, Universe};

use crate::host::{self, Pinning};
use crate::metrics::SUBSTRATES;
use crate::run::{Values, KINDS};
use crate::stats::median;
use crate::workloads::{CG_PARAMS, FFT_LOG2, HPL_N, JOB_CPUS, RA_LOG2_LOCAL, RA_UPDATES};

/// Batches of a two-sided loop (after one warm-up batch) and calls in
/// each.
const RT_BATCHES: usize = 30;
const RT_PER_BATCH: usize = 20;
/// Individually timed round trips behind `fabric.wake_rt_p99_us`.
const WAKE_SAMPLES: usize = 1000;
/// Time-boxed loops stop after this many batches even with slice left.
const MAX_BATCHES: usize = 200;
const MIN_BATCHES: usize = 5;
/// Elements of the arrays small operations stride over (2 MiB).
const ARRAY_WORDS: usize = 1 << 18;
/// One mebibyte of `u64`s.
const MIB_WORDS: usize = (1 << 20) / 8;
/// `u64`s each image sends each peer in the `alltoall64k` loops.
const A2A_BLOCK: usize = (64 << 10) / 8;

/// Samples per metric name.
type Rows = Vec<(String, Vec<f64>)>;

/// Word offset of the `i`-th small operation: a stride that walks the
/// whole array instead of hammering one cache line.
fn word(i: usize) -> usize {
    (i * 17) % ARRAY_WORDS
}

/// Time-boxed sampling of a loop nobody else takes part in.
#[derive(Clone, Copy)]
struct Boxed {
    slice: Duration,
}

impl Boxed {
    /// Seconds per call of `op`, one sample per batch of `per_batch`.
    fn secs(&self, per_batch: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
        let mut i = 0;
        let mut batch = |i: &mut usize| {
            let t = Instant::now();
            for _ in 0..per_batch {
                op(*i);
                *i += 1;
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        };
        batch(&mut i); // warm-up
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_BATCHES
            || (samples.len() < MAX_BATCHES && started.elapsed() < self.slice)
        {
            samples.push(batch(&mut i));
        }
        samples
    }

    fn ns(&self, per_batch: usize, op: impl FnMut(usize)) -> Vec<f64> {
        self.secs(per_batch, op)
            .into_iter()
            .map(|s| s * 1e9)
            .collect()
    }

    /// GB/s of a loop whose call moves one MiB.
    fn gbps_1m(&self, op: impl FnMut(usize)) -> Vec<f64> {
        self.secs(4, op)
            .into_iter()
            .map(|s| (1u64 << 20) as f64 / s * 1e-9)
            .collect()
    }
}

/// µs per call of a two-sided loop: every participant calls this with
/// the same `op` count; one warm-up batch, then [`RT_BATCHES`].
fn fixed_us(mut op: impl FnMut()) -> Vec<f64> {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..RT_PER_BATCH {
            op();
        }
        t.elapsed().as_secs_f64() * 1e6 / RT_PER_BATCH as f64
    };
    batch();
    (0..RT_BATCHES).map(|_| batch()).collect()
}

pub struct LadderOpts {
    /// Wall seconds the ladder should take, roughly.
    pub seconds: f64,
    pub seed: u64,
    pub pin: Arc<Pinning>,
}

/// Run every loop of the ladder and return the medians by metric name.
/// Panics if a loop fails; the caller runs this under a deadline.
pub fn run_ladder(opts: &LadderOpts) -> Values {
    // Fixed-size loops take about half of a 5 s ladder on the host this
    // was sized on; the forty-odd time-boxed loops share the other half.
    let boxed = Boxed {
        slice: Duration::from_secs_f64((opts.seconds * 0.5 / 45.0).clamp(0.004, 0.25)),
    };
    // Everything below inherits this thread's CPU.
    opts.pin.pin();
    let tasks = ExecConfig {
        mode: ExecMode::Tasks,
        workers: JOB_CPUS,
        seed: opts.seed,
        ..ExecConfig::default()
    };
    let mut rows = Rows::new();
    rows.extend(host_rows(&opts.pin));
    rows.extend(fabric_rows(boxed));
    rows.extend(sched_rows(boxed, tasks));
    rows.extend(mpisim_rows(boxed));
    rows.extend(gasnetsim_rows(boxed));
    for (kind, s) in KINDS.into_iter().zip(SUBSTRATES) {
        rows.extend(core_rows(boxed, kind, s));
        rows.extend(core_agg_rows(kind, s));
    }
    rows.extend(hook_rows(boxed));
    rows.extend(agg_rows(boxed));
    rows.extend(hpcc_rows());

    let mut values = Values::new();
    for (name, samples) in rows {
        // The wake loop's samples are single round trips: report their
        // tail beside their median.
        if name == "fabric.wake_rt_us" {
            let p99 = {
                let mut v = samples.clone();
                v.sort_by(f64::total_cmp);
                v[(v.len() * 99).div_ceil(100) - 1]
            };
            values.insert("fabric.wake_rt_p99_us".into(), Some(p99));
        }
        values.insert(name, median(&samples));
    }
    values
}

// ---- host ---------------------------------------------------------------

fn host_rows(pin: &Pinning) -> Rows {
    vec![
        (
            "host.memcpy1m_gbps".into(),
            (0..30).map(|_| host::memcpy1m_gbps(8)).collect(),
        ),
        (
            "host.atomic_inc_ns".into(),
            (0..30).map(|_| host::atomic_inc_ns(100_000)).collect(),
        ),
        (
            "host.condvar_rt_us".into(),
            host::condvar_rt_us(None, RT_BATCHES, RT_PER_BATCH),
        ),
        // What the same wake costs when it crosses CPUs; no sample on a
        // one-CPU host.
        (
            "host.condvar_xcpu_rt_us".into(),
            match pin.allowed.get(1) {
                Some(&other) => host::condvar_rt_us(Some(other), RT_BATCHES, RT_PER_BATCH),
                None => Vec::new(),
            },
        ),
    ]
}

// ---- fabric -------------------------------------------------------------

/// Packet kind of the ladder's own fabric traffic (substrates use
/// 1..=3 and 10..=14, failure notices 0xFA).
const KIND_BENCH: u16 = 0x77;

fn ping(ep: &Endpoint, to: usize) {
    ep.send(to, Packet::control(ep.rank(), KIND_BENCH, 0, [0; 4]))
        .expect("fabric send");
}

/// `send`/`recv_blocking` ping-pong between ranks 0 and 1; rank 0
/// returns one sample per round trip in µs.
fn fabric_ping_pong(ep: &Endpoint) -> Vec<f64> {
    let warm = 50;
    if ep.rank() == 1 {
        for _ in 0..warm + WAKE_SAMPLES {
            ep.recv_blocking().expect("fabric recv");
            ping(ep, 0);
        }
        return Vec::new();
    }
    let mut samples = Vec::with_capacity(WAKE_SAMPLES);
    for i in 0..warm + WAKE_SAMPLES {
        let t = Instant::now();
        ping(ep, 1);
        ep.recv_blocking().expect("fabric recv");
        if i >= warm {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
}

fn fabric_rows(boxed: Boxed) -> Rows {
    let mut per_rank = Fabric::run(2, |ep| {
        let mut rows = Rows::new();
        // Exchange segment ids the way a substrate bootstraps.
        let mine = ep.register_segment(Segment::new(ARRAY_WORDS * 8));
        ep.send(
            1 - ep.rank(),
            Packet::control(ep.rank(), KIND_BENCH, 0, [mine.0, 0, 0, 0]),
        )
        .expect("fabric send");
        let theirs = caf_fabric::SegmentId(ep.recv_blocking().expect("fabric recv").h[0]);
        if ep.rank() == 0 {
            let seg = ep.segment(theirs).expect("peer segment");
            let bytes = 7u64.to_le_bytes();
            rows.push((
                "fabric.seg_put8_ns".into(),
                boxed.ns(10_000, |i| seg.put(word(i) * 8, &bytes).expect("put")),
            ));
            let mut out = [0u8; 8];
            rows.push((
                "fabric.seg_get8_ns".into(),
                boxed.ns(10_000, |i| {
                    seg.get(word(i) * 8, &mut out).expect("get");
                    std::hint::black_box(&out);
                }),
            ));
            rows.push((
                "fabric.seg_fetch_add_ns".into(),
                boxed.ns(10_000, |i| {
                    std::hint::black_box(seg.fetch_add_u64(word(i) * 8, 1).expect("fetch_add"));
                }),
            ));
            let mut big = vec![0x5au8; 1 << 20];
            rows.push((
                "fabric.seg_put1m_gbps".into(),
                boxed.gbps_1m(|i| seg.put((i % 2) << 20, &big).expect("put")),
            ));
            rows.push((
                "fabric.seg_get1m_gbps".into(),
                boxed.gbps_1m(|i| seg.get((i % 2) << 20, &mut big).expect("get")),
            ));
            rows.push((
                "fabric.seg_lookup_ns".into(),
                boxed.ns(10_000, |_| {
                    std::hint::black_box(ep.segment(theirs).expect("lookup"));
                }),
            ));
            // One thread, no wake: a packet through this rank's own
            // mailbox.
            rows.push((
                "fabric.mailbox_ns".into(),
                boxed.ns(5_000, |_| {
                    ping(&ep, 0);
                    std::hint::black_box(ep.try_recv().expect("own packet"));
                }),
            ));
        }
        // Rank 1 blocks in its first receive until rank 0 gets here.
        rows.push(("fabric.wake_rt_us".into(), fabric_ping_pong(&ep)));
        ep.unregister_segment(mine).expect("unregister");
        rows
    });
    per_rank.swap_remove(0)
}

// ---- sched --------------------------------------------------------------

fn sched_rows(boxed: Boxed, tasks: ExecConfig) -> Rows {
    let mut rows = Rows::new();

    // park/unpark ping-pong between two tasks. The turn word makes a
    // stray permit (a finished task unparks everyone) harmless.
    let turn = AtomicU64::new(0);
    let total = (RT_BATCHES + 1) * RT_PER_BATCH;
    let mut handoff = caf_sched::run(2, &tasks, |rank| {
        let mut next = rank as u64; // task 0 moves on even turns
        let mut pass = || {
            while turn.load(Ordering::Acquire) != next {
                caf_sched::park();
            }
            turn.store(next + 1, Ordering::Release);
            caf_sched::unpark(1 - rank);
            next += 2;
        };
        if rank == 0 {
            fixed_us(&mut pass)
        } else {
            (0..total).for_each(|_| pass());
            Vec::new()
        }
    });
    rows.push((
        "sched.handoff_rt_us".into(),
        handoff.swap_remove(0).expect("handoff task"),
    ));

    let mut yields = caf_sched::run(1, &tasks, |_| boxed.ns(200, |_| caf_sched::yield_now()));
    rows.push((
        "sched.yield_ns".into(),
        yields.swap_remove(0).expect("yield task"),
    ));

    const SPAWNED: usize = 256;
    rows.push((
        "sched.spawn_us_per_task".into(),
        (0..10)
            .map(|_| {
                let t = Instant::now();
                for r in caf_sched::run(SPAWNED, &tasks, |_| ()) {
                    r.expect("no-op task");
                }
                t.elapsed().as_secs_f64() * 1e6 / SPAWNED as f64
            })
            .collect(),
    ));

    let cfg = FabricConfig {
        exec: tasks,
        ..FabricConfig::default()
    };
    let mut wake = Fabric::run_with_config(2, cfg, |ep| fabric_ping_pong(&ep));
    rows.push(("sched.fabric_wake_rt_us".into(), wake.swap_remove(0)));
    rows
}

// ---- mpisim -------------------------------------------------------------

/// Per-rank `Mpi::init` / `Gasnet::init` wall time in ms, ten job
/// launches of two ranks.
fn init_ms<L>(init: impl Fn(Endpoint) -> L + Sync) -> Vec<f64> {
    (0..10)
        .map(|_| {
            Fabric::run(2, |ep| {
                let t = Instant::now();
                let lib = init(ep);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(lib);
                ms
            })[0]
        })
        .collect()
}

fn mpisim_rows(boxed: Boxed) -> Rows {
    let cfg = MpiConfig::default();
    let mut per_rank = Universe::run_with_config(2, cfg, |mpi| {
        let me = mpi.rank();
        let world = mpi.world();
        let mut rows = Rows::new();
        let win = mpi
            .win_allocate(&world, ARRAY_WORDS * 8)
            .expect("win_allocate");
        mpi.win_lock_all(&win);
        if me == 0 {
            rows.push((
                "mpisim.put8_flush_ns".into(),
                boxed.ns(10_000, |i| {
                    mpi.put(&win, 1, word(i) * 8, &[i as u64]).expect("put");
                    mpi.win_flush(&win, 1).expect("flush");
                }),
            ));
            let mut out = [0u64];
            rows.push((
                "mpisim.get8_ns".into(),
                boxed.ns(10_000, |i| {
                    mpi.get(&win, 1, word(i) * 8, &mut out).expect("get");
                    std::hint::black_box(&out);
                }),
            ));
            rows.push((
                "mpisim.fetch_op8_ns".into(),
                boxed.ns(10_000, |i| {
                    let old = mpi.fetch_and_op(&win, 1, word(i) * 8, 1u64, AccOp::Sum);
                    std::hint::black_box(old.expect("fetch_and_op"));
                }),
            ));
            let big = vec![3u64; MIB_WORDS];
            rows.push((
                "mpisim.put1m_gbps".into(),
                boxed.gbps_1m(|i| {
                    mpi.put(&win, 1, (i % 2) << 20, &big).expect("put");
                    mpi.win_flush(&win, 1).expect("flush");
                }),
            ));
            rows.push((
                "mpisim.flush_all_ns.p2".into(),
                boxed.ns(10_000, |_| mpi.win_flush_all(&win).expect("flush_all")),
            ));
        }
        mpi.barrier(&world).expect("barrier");
        let rt = fixed_us(|| {
            if me == 0 {
                mpi.send(&world, 1, 7, &[1u64]).expect("send");
                mpi.recv::<u64>(&world, Src::Rank(1), Tag::Is(7))
                    .expect("recv");
            } else {
                mpi.recv::<u64>(&world, Src::Rank(0), Tag::Is(7))
                    .expect("recv");
                mpi.send(&world, 0, 7, &[1u64]).expect("send");
            }
        });
        rows.push(("mpisim.sendrecv_rt_us".into(), rt));
        rows.push((
            "mpisim.barrier_us".into(),
            fixed_us(|| mpi.barrier(&world).expect("barrier")),
        ));
        rows.push((
            "mpisim.allreduce8_us".into(),
            fixed_us(|| {
                std::hint::black_box(
                    mpi.allreduce(&world, &[me as u64], |a, b| a + b)
                        .expect("allreduce"),
                );
            }),
        ));
        let blocks = vec![me as u64; 2 * A2A_BLOCK];
        rows.push((
            "mpisim.alltoall64k_us".into(),
            fixed_us(|| {
                std::hint::black_box(mpi.alltoall(&world, &blocks, A2A_BLOCK).expect("alltoall"));
            }),
        ));
        rows.push((
            "mpisim.win_alloc_free_us".into(),
            fixed_us(|| {
                let w = mpi.win_allocate(&world, 4096).expect("win_allocate");
                mpi.win_lock_all(&w);
                mpi.win_unlock_all(&w).expect("unlock_all");
                mpi.win_free(w).expect("win_free");
            }),
        ));
        mpi.win_unlock_all(&win).expect("unlock_all");
        mpi.win_free(win).expect("win_free");
        rows
    });
    let mut rows = per_rank.swap_remove(0);

    // Θ(P): the same flush_all with 32 ranks in the window.
    let mut p32 = Universe::run_with_config(32, cfg, |mpi| {
        let world = mpi.world();
        let win = mpi.win_allocate(&world, 64).expect("win_allocate");
        mpi.win_lock_all(&win);
        let samples = if mpi.rank() == 0 {
            boxed.ns(2_000, |_| mpi.win_flush_all(&win).expect("flush_all"))
        } else {
            Vec::new()
        };
        mpi.win_unlock_all(&win).expect("unlock_all");
        mpi.win_free(win).expect("win_free");
        samples
    });
    rows.push(("mpisim.flush_all_ns.p32".into(), p32.swap_remove(0)));
    rows.push(("mpisim.init_ms".into(), init_ms(|ep| Mpi::init(ep, cfg))));
    rows
}

// ---- gasnetsim ----------------------------------------------------------

/// AM handler indices of the ladder (user handlers start at 2).
const H_PING: usize = 2;
const H_PONG: usize = 3;

fn gasnetsim_rows(boxed: Boxed) -> Rows {
    let cfg = GasnetConfig {
        segment_size: ARRAY_WORDS * 8,
        ..GasnetConfig::default()
    };
    let mut per_rank = GasnetUniverse::run_with_config(2, cfg, |g| {
        let me = g.rank();
        let mut rows = Rows::new();
        let pongs = Arc::new(AtomicU64::new(0));
        g.register_handler(H_PING, |g: &Gasnet, tok, args, _data| {
            g.am_reply_short(tok, H_PONG, args).expect("AM reply");
        });
        let seen = Arc::clone(&pongs);
        g.register_handler(H_PONG, move |_g: &Gasnet, _tok, _args, _data| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        g.barrier();
        if me == 0 {
            rows.push((
                "gasnetsim.put8_ns".into(),
                boxed.ns(10_000, |i| g.put(1, word(i) * 8, &[i as u64]).expect("put")),
            ));
            let mut out = [0u64];
            rows.push((
                "gasnetsim.get8_ns".into(),
                boxed.ns(10_000, |i| {
                    g.get(1, word(i) * 8, &mut out).expect("get");
                    std::hint::black_box(&out);
                }),
            ));
            let big = vec![3u64; MIB_WORDS];
            rows.push((
                "gasnetsim.put1m_gbps".into(),
                boxed.gbps_1m(|i| g.put(1, (i % 2) << 20, &big).expect("put")),
            ));
            rows.push((
                "gasnetsim.poll_empty_ns".into(),
                boxed.ns(10_000, |_| {
                    std::hint::black_box(g.poll());
                }),
            ));
        }
        g.barrier();
        // Request/reply round trips: rank 1 only serves.
        let serve = || {
            let pkt = g.wait_am_packet();
            g.dispatch_packet(pkt);
        };
        let round_trip = |payload: Option<&[u8]>| {
            fixed_us(|| {
                if me == 1 {
                    return serve();
                }
                let want = pongs.load(Ordering::Relaxed) + 1;
                let sent = match payload {
                    None => g.am_request_short(1, H_PING, &[want]),
                    Some(data) => g.am_request_medium(1, H_PING, &[want], data),
                };
                sent.expect("AM request");
                while pongs.load(Ordering::Relaxed) < want {
                    serve();
                }
            })
        };
        rows.push(("gasnetsim.am_short_rt_us".into(), round_trip(None)));
        let payload = vec![0xabu8; 4096];
        rows.push((
            "gasnetsim.am_medium4k_rt_us".into(),
            round_trip(Some(&payload)),
        ));
        rows.push(("gasnetsim.barrier_us".into(), fixed_us(|| g.barrier())));
        rows
    });
    let mut rows = per_rank.swap_remove(0);
    rows.push((
        "gasnetsim.init_ms".into(),
        init_ms(|ep| Gasnet::init(ep, cfg)),
    ));
    rows
}

// ---- core ---------------------------------------------------------------

fn core_config(kind: SubstrateKind) -> CafConfig {
    CafConfig {
        substrate: kind,
        gasnet: GasnetConfig {
            segment_size: 2 * ARRAY_WORDS * 8,
            ..GasnetConfig::default()
        },
        ..CafConfig::default()
    }
}

/// The `Coarray::write` loop behind `core.write8_ns.S` and the three
/// hook-tax rows.
fn write8_ns(boxed: Boxed, img: &Image, ca: &Coarray<u64>) -> Vec<f64> {
    boxed.ns(10_000, |i| ca.write(img, 1, word(i), &[i as u64]))
}

fn core_rows(boxed: Boxed, kind: SubstrateKind, s: &str) -> Rows {
    // Posted-batch counter: lets image 1 stay out of the fabric (so no
    // notify pays for a wake) until image 0 has posted a whole batch.
    let posted = AtomicU64::new(0);
    let per_image = CafUniverse::run_with_config(2, core_config(kind), |img| {
        let me = img.this_image();
        let world = img.team_world();
        let mut rows = Rows::new();
        let mut row =
            |stem: &str, samples: Vec<f64>| rows.push((format!("core.{stem}.{s}"), samples));
        let ca: Coarray<u64> = img.coarray_alloc(&world, ARRAY_WORDS);
        if me == 0 {
            row("write8_ns", write8_ns(boxed, img, &ca));
            let mut out = [0u64];
            row(
                "read8_ns",
                boxed.ns(10_000, |i| {
                    ca.read(img, 1, word(i), &mut out);
                    std::hint::black_box(&out);
                }),
            );
            let mut big = vec![3u64; MIB_WORDS];
            row(
                "write1m_gbps",
                boxed.gbps_1m(|i| ca.write(img, 1, (i % 2) * MIB_WORDS, &big)),
            );
            row(
                "read1m_gbps",
                boxed.gbps_1m(|i| ca.read(img, 1, (i % 2) * MIB_WORDS, &mut big)),
            );
            // 64 implicitly synchronized puts, then one cofence.
            row(
                "async_put8_ns",
                boxed
                    .ns(100, |i| {
                        for k in 0..64 {
                            img.copy_async_put(
                                &ca,
                                1,
                                word(i * 64 + k),
                                &[k as u64],
                                AsyncOpts::none(),
                            );
                        }
                        img.cofence();
                    })
                    .into_iter()
                    .map(|ns| ns / 64.0)
                    .collect(),
            );
            if kind == SubstrateKind::Mpi {
                row(
                    "fetch_add8_ns",
                    boxed.ns(10_000, |i| {
                        std::hint::black_box(ca.fetch_add(img, 1, word(i), 1u64));
                    }),
                );
                img.stats().set_accounting(false);
                row("write8_noacct_ns", write8_ns(boxed, img, &ca));
                img.stats().set_accounting(true);
            }
        }
        img.sync_all();

        // notify / wait when nobody blocks: image 0 posts a batch while
        // image 1 spins outside the fabric, then image 1 consumes it.
        let ev = img.event_alloc(&world);
        let batch = 200;
        let mut post = Vec::new();
        let mut consume = Vec::new();
        for b in 1..=RT_BATCHES as u64 + 1 {
            img.sync_all();
            if me == 0 {
                let t = Instant::now();
                for _ in 0..batch {
                    img.event_notify(&world, &ev, 1);
                }
                post.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
                posted.store(b, Ordering::Release);
            } else {
                while posted.load(Ordering::Acquire) < b {
                    std::thread::yield_now();
                }
                let t = Instant::now();
                for _ in 0..batch {
                    img.event_wait(&ev);
                }
                consume.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
            }
        }
        // First batch is warm-up; each side reports what it timed.
        if me == 0 {
            row("event_post_ns", post.split_off(1));
        } else {
            row("event_consume_ns", consume.split_off(1));
        }

        let (ping, pong) = (img.event_alloc(&world), img.event_alloc(&world));
        img.sync_all();
        row(
            "event_rt_us",
            fixed_us(|| {
                if me == 0 {
                    img.event_notify(&world, &ping, 1);
                    img.event_wait(&pong);
                } else {
                    img.event_wait(&ping);
                    img.event_notify(&world, &pong, 0);
                }
            }),
        );
        row("barrier_us", fixed_us(|| img.barrier(&world)));
        row(
            "allreduce8_us",
            fixed_us(|| {
                std::hint::black_box(img.allreduce(&world, &[me as u64], |a, b| a + b));
            }),
        );
        let blocks = vec![me as u64; 2 * A2A_BLOCK];
        row(
            "alltoall64k_us",
            fixed_us(|| {
                std::hint::black_box(img.alltoall(&world, &blocks, A2A_BLOCK));
            }),
        );
        row("finish_empty_us", fixed_us(|| img.finish(&world, |_| ())));
        // One shipped no-op and the finish that awaits it.
        row(
            "ship_rt_us",
            fixed_us(|| {
                img.finish(&world, |img| {
                    if me == 0 {
                        img.ship(&world, 1, |_| ());
                    }
                })
            }),
        );
        row(
            "alloc_free_us",
            fixed_us(|| {
                let c: Coarray<u64> = img.coarray_alloc(&world, 512);
                img.coarray_free(&world, c);
            }),
        );
        img.coarray_free(&world, ca);
        // Two-sided rows are timed on both images; image 0's are kept.
        if me == 1 {
            rows.retain(|(name, _)| name.starts_with("core.event_consume_ns"));
        }
        rows
    });
    per_image.into_iter().flatten().collect()
}

/// Records per `finish` block in the `core.agg_update_ns.S` loop.
const AGG_BLOCK: usize = 4096;

fn core_agg_rows(kind: SubstrateKind, s: &str) -> Rows {
    let cfg = CafConfig {
        agg: AggConfig::on(),
        ..core_config(kind)
    };
    let mut per_image = CafUniverse::run_with_config(2, cfg, |img| {
        let world = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&world, ARRAY_WORDS);
        let mut i = 0;
        let samples = fixed_us(|| {
            img.finish(&world, |img| {
                if img.this_image() == 0 {
                    for _ in 0..AGG_BLOCK {
                        img.agg_accumulate_xor(&ca, 1, word(i), i as u64);
                        i += 1;
                    }
                }
            })
        });
        img.coarray_free(&world, ca);
        samples
    });
    let per_record_ns = per_image
        .swap_remove(0)
        .into_iter()
        .map(|us| us * 1e3 / AGG_BLOCK as f64)
        .collect();
    vec![(format!("core.agg_update_ns.{s}"), per_record_ns)]
}

/// The hook-tax rows that need a launch of their own: `Coarray::write`
/// on CAF-MPI under an armed `caf_trace::Session`, and under a
/// `FaultPlan` whose kill never fires.
fn hook_rows(boxed: Boxed) -> Rows {
    let write_loop = |cfg: CafConfig| {
        CafUniverse::run_with_config(2, cfg, |img| {
            let world = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&world, ARRAY_WORDS);
            let samples = if img.this_image() == 0 {
                write8_ns(boxed, img, &ca)
            } else {
                Vec::new()
            };
            img.coarray_free(&world, ca);
            samples
        })
        .swap_remove(0)
    };
    let session = caf_trace::Session::start(caf_trace::TraceConfig {
        stall_threshold: None,
        announce_stalls: false,
        ..caf_trace::TraceConfig::default()
    })
    .expect("no other trace session in this process");
    let traced = write_loop(core_config(SubstrateKind::Mpi));
    drop(session.finish());
    let armed = write_loop(CafConfig {
        fault: FaultPlan::kill(
            1,
            KillSite::Op {
                name: "wallbench-never",
                hits: u32::MAX,
            },
        ),
        ..core_config(SubstrateKind::Mpi)
    });
    vec![
        ("trace.armed_write8_ns.mpi".into(), traced),
        ("fault.armed_write8_ns.mpi".into(), armed),
    ]
}

// ---- agg ----------------------------------------------------------------

fn agg_rows(boxed: Boxed) -> Rows {
    let record = |i: usize| Record {
        dest: 1,
        op: RecordOp::Xor,
        region: 1,
        offset: (word(i) * 8) as u64,
        payload: (i as u64).to_le_bytes().to_vec(),
    };
    let mut agg = Aggregator::new(AggConfig::on(), 0, 2);
    let enqueue = boxed.ns(4096, |i| {
        // A full bucket comes back drained; dropping it is the send.
        std::hint::black_box(agg.enqueue(record(i)));
    });
    let bucket: Vec<Record> = (0..AggConfig::on().bucket_records).map(record).collect();
    let per_record = |ns: Vec<f64>| ns.into_iter().map(|v| v / bucket.len() as f64).collect();
    let encode = boxed.ns(64, |_| {
        std::hint::black_box(encode_batch(&bucket));
    });
    let bytes = encode_batch(&bucket);
    let decode = boxed.ns(64, |_| {
        std::hint::black_box(decode_batch(&bytes));
    });
    vec![
        ("agg.enqueue_ns".into(), enqueue),
        ("agg.encode_ns".into(), per_record(encode)),
        ("agg.decode_ns".into(), per_record(decode)),
    ]
}

// ---- hpcc ---------------------------------------------------------------

/// The plain single-thread baselines, on each workload's own problem.
/// These calls are long; three batches each.
fn hpcc_rows() -> Rows {
    fn thrice(mut f: impl FnMut() -> f64) -> Vec<f64> {
        (0..3).map(|_| f()).collect()
    }
    let n = 1usize << FFT_LOG2;
    let input: Vec<_> = (0..n).map(fft::input_element).collect();
    let fft_rows = thrice(move || {
        let mut x = input.clone();
        let t = Instant::now();
        fft::serial_fft(&mut x, false);
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(&x);
        5.0 * n as f64 * FFT_LOG2 as f64 / s * 1e-9
    });
    let matrix: Vec<f64> = (0..HPL_N * HPL_N)
        .map(|k| linalg::matrix_entry(k % HPL_N, k / HPL_N, 42))
        .collect();
    let lu_rows = thrice(move || {
        let mut a = matrix.clone();
        let t = Instant::now();
        std::hint::black_box(linalg::serial_lu(HPL_N, &mut a));
        let nf = HPL_N as f64;
        2.0 / 3.0 * nf * nf * nf / t.elapsed().as_secs_f64() * 1e-9
    });
    let ra_rows = thrice(|| {
        let t = Instant::now();
        std::hint::black_box(ra::serial_reference(2, 1 << RA_LOG2_LOCAL, RA_UPDATES));
        (2 * RA_UPDATES) as f64 / t.elapsed().as_secs_f64() * 1e-6
    });
    let cg_rows = thrice(|| {
        let t = Instant::now();
        std::hint::black_box(cgpop::serial_cg(
            2 * CG_PARAMS.nx,
            CG_PARAMS.ny,
            CG_PARAMS.iters,
        ));
        t.elapsed().as_secs_f64() * 1e6 / CG_PARAMS.iters as f64
    });
    vec![
        ("hpcc.fft_serial_gflops".into(), fft_rows),
        ("hpcc.lu_serial_gflops".into(), lu_rows),
        ("hpcc.ra_serial_mups".into(), ra_rows),
        ("hpcc.cg_serial_iter_us".into(), cg_rows),
    ]
}

/// The ladder as text: each rung with its tax over the rung below, and
/// whether the rungs that must be ordered are. The wake rungs all sit
/// on one host wake-up (a few tens of µs, ±10 % between loops), so only
/// bottom against top is required of them.
pub fn ladder_text(v: &Values) -> String {
    let get = |name: &str| v.get(name).copied().flatten();
    // `must` lists `(lower, upper)` pairs of rungs.
    let chain = |title: &str, names: &[&str], unit: &str, must: &[(&str, &str)]| -> String {
        let mut out = format!("{title}:\n");
        let mut below: Option<f64> = None;
        for name in names {
            match (get(name), below) {
                (None, _) => out += &format!("  {name:<34} unavailable\n"),
                (Some(x), None) => out += &format!("  {name:<34} {x:>10.1} {unit}\n"),
                (Some(x), Some(b)) => {
                    out += &format!("  {name:<34} {x:>10.1} {unit}  tax {:+.1}\n", x - b)
                }
            }
            below = get(name).or(below);
        }
        for (lower, upper) in must {
            let verdict = match get(lower).zip(get(upper)) {
                Some((l, u)) if l <= u => "yes",
                Some(_) => "NO",
                None => "unavailable",
            };
            out += &format!("  monotone ({lower} <= {upper}): {verdict}\n");
        }
        out
    };
    let mut out = format!(
        "  fabric.wake_rt_p99_us is p99 of {WAKE_SAMPLES} single round trips ({} beyond it)\n",
        WAKE_SAMPLES - (WAKE_SAMPLES * 99).div_ceil(100)
    );
    out += &chain(
        "8-byte put, CAF-MPI (Segment::put -> Mpi::put+flush -> Coarray::write)",
        &[
            "fabric.seg_put8_ns",
            "mpisim.put8_flush_ns",
            "core.write8_ns.mpi",
        ],
        "ns",
        &[
            ("fabric.seg_put8_ns", "mpisim.put8_flush_ns"),
            ("mpisim.put8_flush_ns", "core.write8_ns.mpi"),
        ],
    );
    out += &chain(
        "8-byte put, CAF-GASNet (Segment::put -> Gasnet::put -> Coarray::write)",
        &[
            "fabric.seg_put8_ns",
            "gasnetsim.put8_ns",
            "core.write8_ns.gasnet",
        ],
        "ns",
        &[
            ("fabric.seg_put8_ns", "gasnetsim.put8_ns"),
            ("gasnetsim.put8_ns", "core.write8_ns.gasnet"),
        ],
    );
    out += &chain(
        "wake round trip, CAF-MPI (condvar -> fabric -> sendrecv -> event)",
        &[
            "host.condvar_rt_us",
            "fabric.wake_rt_us",
            "mpisim.sendrecv_rt_us",
            "core.event_rt_us.mpi",
        ],
        "us",
        &[("fabric.wake_rt_us", "core.event_rt_us.mpi")],
    );
    out += &chain(
        "wake round trip, CAF-GASNet (condvar -> fabric -> short AM -> event)",
        &[
            "host.condvar_rt_us",
            "fabric.wake_rt_us",
            "gasnetsim.am_short_rt_us",
            "core.event_rt_us.gasnet",
        ],
        "us",
        &[("fabric.wake_rt_us", "core.event_rt_us.gasnet")],
    );
    out += "hook tax on Coarray::write, CAF-MPI (difference to core.write8_ns.mpi):\n";
    if let Some(base) = get("core.write8_ns.mpi") {
        for name in [
            "core.write8_noacct_ns.mpi",
            "trace.armed_write8_ns.mpi",
            "fault.armed_write8_ns.mpi",
        ] {
            match get(name) {
                Some(x) => out += &format!("  {name:<34} {x:>10.1} ns  {:+.1}\n", x - base),
                None => out += &format!("  {name:<34} unavailable\n"),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_text_prints_taxes_and_flags_an_inverted_rung() {
        let mut v = Values::new();
        for (name, x) in [
            ("fabric.seg_put8_ns", 8.0),
            ("mpisim.put8_flush_ns", 80.0),
            ("core.write8_ns.mpi", 70.0),
            ("core.write8_noacct_ns.mpi", 60.0),
        ] {
            v.insert(name.into(), Some(x));
        }
        let text = ladder_text(&v);
        assert!(text.contains("tax +72.0"), "{text}");
        assert!(text.contains("monotone (fabric.seg_put8_ns <= mpisim.put8_flush_ns): yes"));
        assert!(text.contains("monotone (mpisim.put8_flush_ns <= core.write8_ns.mpi): NO"));
        assert!(text.contains("monotone (fabric.wake_rt_us <= core.event_rt_us.mpi): unavailable"));
        assert!(text.contains("core.write8_noacct_ns.mpi"));
        assert!(text.contains("-10.0"));
    }

    #[test]
    fn time_boxed_loops_run_between_min_and_max_batches() {
        let quick = Boxed {
            slice: Duration::ZERO,
        };
        assert_eq!(quick.ns(10, |_| ()).len(), MIN_BATCHES);
        let long = Boxed {
            slice: Duration::from_secs(3600),
        };
        let mut calls = 0;
        assert_eq!(long.ns(3, |_| calls += 1).len(), MAX_BATCHES);
        assert_eq!(calls, 3 * (MAX_BATCHES + 1), "one warm-up batch");
        assert_eq!(fixed_us(|| ()).len(), RT_BATCHES);
    }
}
