//! Deterministic perf harness and its gate (`cargo xtask bench` runs it):
//! builds the rows of `BENCH_ra.json`, `BENCH_micro.json` and
//! `BENCH_agg.json`, asserts their shapes, and compares them against the
//! committed baselines at the workspace root.
//!
//! ```text
//! bench [--smoke] [--out-dir DIR] [--update-baseline]
//! ```
//!
//! Three reports:
//!
//! * **BENCH_ra.json** — the RandomAccess notify hot path (paper §4.1) at
//!   several job sizes, on both substrates, under every
//!   [`caf::FlushMode`]. The async-put router variant defers remote
//!   completion to `event_notify`, so the per-notify flush charge is the
//!   measured quantity: `FlushMode::All` reproduces the paper's Θ(P)
//!   `MPI_Win_flush_all`, the targeted modes stay flat.
//! * **BENCH_micro.json** — per-primitive delay decomposition (put, get,
//!   atomic, notify) at a fixed small job size, plus FFT rows.
//! * **BENCH_agg.json** — small-put aggregation (see `AGG_*` below).
//!
//! Every number in a row's `gate` object is a **modeled** count or
//! nanosecond total — from the substrate delay meter or the aggregation
//! counters, a deterministic function of the communication schedule,
//! byte-identical across runs and machines — so the gate can be tight:
//! a gated field more than [`THRESHOLD`] above its baseline fails, as do
//! a changed gate-field set, a row the baseline lacks, and (full runs) a
//! baseline row the run lacks. Wall-clock seconds are reported under
//! `info` and are never gated. The shapes (exit 1 on violation): the
//! per-notify flush charge grows linearly in P under `FlushMode::All` and
//! stays flat under `Targeted`/`Rflush`, with and without aggregation;
//! the executed task-mode rows agree with the analytic model;
//! aggregation lifts bytes per packet at least 8× and routed aggregation
//! beats the direct path.
//!
//! The reports are written to `--out-dir` (default `target/bench-out` at
//! the workspace root, never the baselines themselves). `--smoke` runs a
//! reduced sweep whose rows are a subset of the full baseline's (same
//! per-row workloads). `--update-baseline` runs the full sweep, writes it
//! over the committed baselines and compares nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use caf::{
    AggConfig, AsyncOpts, CafConfig, CafUniverse, Coarray, ExecConfig, FlushMode, SubstrateKind,
};
use caf_bench::json::{self, Value};
use caf_bench::{fast, fusion_like};
use caf_fabric::delay::ALL_DELAY_OPS;
use caf_fabric::DelayOp;
use caf_hpcc::fft;
use caf_hpcc::ra::{self, lcg_next, starts, RaOpts};

/// Ops whose counts are charged at the *origin* in program order — a pure
/// function of the communication schedule, so byte-identical across runs.
/// Receive-side charges (`p2p_receive`, `am_dispatch`) land whenever the
/// receiver happens to poll relative to the snapshot barriers, so they are
/// reported under `info` instead of gated.
const GATE_OPS: [DelayOp; 5] = [
    DelayOp::P2pInject,
    DelayOp::RmaPut,
    DelayOp::RmaGet,
    DelayOp::RmaAtomic,
    DelayOp::FlushPerTarget,
];

/// Allowed relative increase of a gated field over its baseline.
const THRESHOLD: f64 = 0.15;

/// The report envelope every `BENCH_*.json` carries.
const SCHEMA: &str = "caf-bench-v1";

/// Job sizes for the RA sweep. Smoke trims the list; each row's workload
/// is identical in both, so smoke rows gate against the full baseline.
const RA_P_FULL: [usize; 4] = [2, 4, 8, 16];
const RA_P_SMOKE: [usize; 3] = [2, 4, 8];
const RA_LOG2_LOCAL: u32 = 8;
const RA_UPDATES: usize = 800;

/// Executed high-P rows: the caf-sched task executor lets only a handful
/// of the `p` image tasks run at once, so these jobs run for *real*
/// (no netmodel extrapolation) on a laptop. Cost-free delay tables keep
/// the wall clock tractable — the gated quantities are the deterministic
/// op counts (modeled ns is zero), and each row's executed per-notify
/// flush curve is compared against the analytic model: 2 windows × P
/// ranks under `flush_all`, the one dirty partner under the targeted
/// modes. The reduced per-image workload is identical in smoke and full
/// runs, so the smoke subset gates against the full baseline.
const RA_HI_P_FULL: [usize; 2] = [256, 1024];
const RA_HI_P_SMOKE: [usize; 1] = [256];
const RA_HI_LOG2_LOCAL: u32 = 6;
const RA_HI_UPDATES: usize = 64;
/// Allowed relative gap between an executed per-notify flush measurement
/// and its analytic prediction.
const RA_HI_AGREEMENT: f64 = 0.25;

/// Per-primitive micro workload size.
const MICRO_P: usize = 4;
const MICRO_REPS: usize = 128;

/// FFT sweep sizes (whole-kernel decomposition rows; the FFT moves data
/// exclusively through team alltoall, so these rows pin the collective
/// plane the RA rows don't touch).
const FFT_P: [usize; 2] = [2, 4];
const FFT_LOG2_SIZE: u32 = 12;

/// Aggregation sweep (BENCH_agg.json). Three row families:
///
/// * `agg-bpp` — one origin streams small puts to one target, direct vs
///   coalesced; the gated `bytes_per_packet` is payload bytes per wire
///   message (one per put direct, one per drained bucket aggregated).
/// * `agg-ra` — GUPS-shaped scattered updates: one remote atomic per
///   update (`direct`) vs coalesced accumulate records (`agg`,
///   `agg-routed`); `proxy_gups` models throughput from the summed
///   origin-charged nanoseconds of the critical-path image.
/// * `agg-notify` — puts + ring notify with aggregation ON across the
///   flush-mode matrix: the PR-4 Θ(P)-vs-flat per-notify flush shape
///   must survive aggregation (batches bypass the window flush path
///   entirely, so targeted modes drop to zero handshakes).
///
/// Gated fields are taken from the deterministic aggregation counters
/// and origin-charged delay-meter ops, never from receive-side charges
/// or round counts of the termination loop.
const AGG_BPP_RECORDS: usize = 256;
const AGG_RA_P_FULL: [usize; 2] = [8, 32];
const AGG_RA_P_SMOKE: [usize; 1] = [8];
/// Updates per image = `AGG_RA_UPDATES_PER_P * p`: the per-destination
/// record count stays constant as P grows, the regime where routing's
/// fuller buckets beat one-nearly-empty-bucket-per-destination.
const AGG_RA_UPDATES_PER_P: usize = 8;
const AGG_RA_LOG2_LOCAL: u32 = 6;
const AGG_NOTIFY_P_FULL: [usize; 4] = [2, 4, 8, 16];
const AGG_NOTIFY_P_SMOKE: [usize; 2] = [2, 8];
const AGG_NOTIFY_ROUNDS: usize = 4;
const AGG_NOTIFY_RECORDS: usize = 32;

/// One report row, built in memory or read back from a report. Its key is
/// `bench/p<P>/substrate/flush`; `flush` is the third identity axis — the
/// flush mode (`n/a` on CAF-GASNet), or an agg row's aggregation mode.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    bench: String,
    p: usize,
    substrate: String,
    flush: String,
    gate: BTreeMap<String, f64>,
    info: BTreeMap<String, f64>,
}

impl Row {
    fn new(
        bench: &str,
        p: usize,
        substrate: &str,
        flush: &str,
        gate: &[(&str, f64)],
        info: &[(&str, f64)],
    ) -> Row {
        let fields = |kv: &[(&str, f64)]| kv.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        Row {
            bench: bench.into(),
            p,
            substrate: substrate.into(),
            flush: flush.into(),
            gate: fields(gate),
            info: fields(info),
        }
    }

    /// A row over a summed delay ledger: each op becomes `{op}_count` and
    /// `{op}_ns`, gated for [`GATE_OPS`], under `info` for the rest.
    fn ledger(
        bench: &str,
        p: usize,
        kind: SubstrateKind,
        flush: FlushMode,
        ledger: &[(DelayOp, u64, u64)],
        info: &[(&str, f64)],
    ) -> Row {
        let flush = if kind == SubstrateKind::Mpi { flush.name() } else { "n/a" };
        let mut row = Row::new(bench, p, substrate_label(kind), flush, &[], info);
        for &(op, c, n) in ledger {
            let fields = if GATE_OPS.contains(&op) { &mut row.gate } else { &mut row.info };
            fields.insert(format!("{}_count", op.name()), c as f64);
            fields.insert(format!("{}_ns", op.name()), n as f64);
        }
        row
    }

    fn key(&self) -> String {
        format!("{}/p{}/{}/{}", self.bench, self.p, self.substrate, self.flush)
    }

    /// A gated or info field.
    fn get(&self, field: &str) -> Option<f64> {
        self.gate.get(field).or_else(|| self.info.get(field)).copied()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = args.iter().any(|a| a == "--update-baseline");
    // A baseline is always a full run.
    let smoke = !update && args.iter().any(|a| a == "--smoke");
    let root = workspace_root();
    let out_dir = match args.iter().position(|a| a == "--out-dir").and_then(|i| args.get(i + 1)) {
        _ if update => root.to_path_buf(),
        Some(dir) => PathBuf::from(dir),
        None => root.join("target/bench-out"),
    };

    let ps: &[usize] = if smoke { &RA_P_SMOKE } else { &RA_P_FULL };
    let hi_ps: &[usize] = if smoke { &RA_HI_P_SMOKE } else { &RA_HI_P_FULL };
    eprintln!("bench: RA sweep (P = {ps:?}, executed task-mode P = {hi_ps:?}, smoke = {smoke})");
    let ra_rows = ra_sweep(ps, hi_ps);
    if let Err(msg) = ra_shape(&ra_rows) {
        eprintln!("bench: SHAPE VIOLATION: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench: shape OK (flush_all per-notify cost linear in P up to executed P = {}, \
         targeted flat, executed curve within {:.0}% of the model)",
        hi_ps.last().copied().unwrap_or(0),
        RA_HI_AGREEMENT * 100.0
    );

    eprintln!("bench: micro primitives (P = {MICRO_P})");
    let micro_rows = micro_sweep();

    eprintln!("bench: aggregation sweep (smoke = {smoke})");
    let agg_rows = agg_sweep(smoke);
    if let Err(msg) = agg_shape(&agg_rows, smoke) {
        eprintln!("bench: AGG SHAPE VIOLATION: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench: agg shape OK (bpp >= 8x direct, routed RA wins at largest P, notify shape held)");

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("bench: creating {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let mut failures = 0usize;
    for (kind, rows) in [("ra", &ra_rows), ("micro", &micro_rows), ("agg", &agg_rows)] {
        let file = format!("BENCH_{kind}.json");
        let path = out_dir.join(&file);
        if let Err(e) = std::fs::write(&path, render(rows, kind, smoke)) {
            eprintln!("bench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("bench: wrote {} ({} rows)", path.display(), rows.len());
        if update {
            continue;
        }
        let baseline = root.join(&file);
        let (errs, notes) = match std::fs::read_to_string(&baseline)
            .map_err(|e| format!("reading {}: {e}", baseline.display()))
            .and_then(|text| parse_rows(&text))
        {
            Ok(base) => gate(&base, rows, smoke),
            Err(e) => (vec![e], Vec::new()),
        };
        for n in &notes {
            println!("bench: {file}: note: {n}");
        }
        for e in &errs {
            eprintln!("bench: {file}: {e}");
        }
        if errs.is_empty() {
            let pct = THRESHOLD * 100.0;
            println!("bench: {file}: {} row(s) within {pct:.0}% of baseline", rows.len());
        }
        failures += errs.len();
    }
    if failures > 0 {
        eprintln!("bench: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Where the committed baselines live.
fn workspace_root() -> &'static Path {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir.ancestors().nth(2).expect("caf-bench lives at <root>/crates/bench")
}

/// MPI flush-mode matrix plus the GASNet baseline (which has no windows
/// and therefore no flush knob), then the executed high-P rows under the
/// task executor (MPI only: the flush-mode matrix is the quantity under
/// test, and GASNet has no flush knob to sweep).
fn ra_sweep(ps: &[usize], hi_ps: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in ps {
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            rows.push(ra_row(p, SubstrateKind::Mpi, flush, false));
        }
        rows.push(ra_row(p, SubstrateKind::Gasnet, FlushMode::All, false));
    }
    for &p in hi_ps {
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            rows.push(ra_row(p, SubstrateKind::Mpi, flush, true));
        }
    }
    rows
}

/// One RA row. An `executed` row runs `p` images as caf-sched tasks on
/// cost-free tables with the reduced workload (see `RA_HI_*`), and carries
/// the analytic prediction its measurement is checked against in
/// [`ra_shape`] as `modeled_flushes_per_notify`.
fn ra_row(p: usize, kind: SubstrateKind, flush: FlushMode, executed: bool) -> Row {
    let (cfg, log2_local, updates) = if executed {
        let cfg = CafConfig { flush, exec: ExecConfig::tasks(), ..fast(kind) };
        (cfg, RA_HI_LOG2_LOCAL, RA_HI_UPDATES)
    } else {
        (CafConfig { flush, ..fusion_like(kind) }, RA_LOG2_LOCAL, RA_UPDATES)
    };
    let outs = CafUniverse::run_with_config(p, cfg, |img| {
        let team = img.team_world();
        let opts = RaOpts { async_puts: true, ..RaOpts::default() };
        let out = ra::run_opts(img, &team, log2_local, updates, opts);
        (out.bench, out.meter_delta)
    });
    let ledger = sum_deltas(outs.iter().map(|(_, d)| d.as_slice()));
    // One notify per hypercube round per image.
    let notifies = (p * p.ilog2() as usize).max(1) as f64;
    let flushes = count(&ledger, DelayOp::FlushPerTarget) as f64;
    let mut info = vec![
        ("seconds", outs[0].0.seconds),
        ("gups", outs[0].0.metric),
        ("notifies", notifies),
        ("flushes_per_notify", flushes / notifies),
    ];
    if executed {
        // flush_all visits both windows (table + staging) on every rank;
        // the targeted modes pay only the round's one dirty partner.
        let modeled = if flush == FlushMode::All { 2.0 * p as f64 } else { 1.0 };
        info.extend([("modeled_flushes_per_notify", modeled), ("executed_tasks", 1.0)]);
    }
    Row::ledger("ra", p, kind, flush, &ledger, &info)
}

fn micro_sweep() -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        rows.push(micro_row("micro:put", kind, |img| {
            let w = img.team_world();
            let ca: caf::Coarray<u64> = img.coarray_alloc(&w, 64);
            let (before, after) = metered(img, |img| {
                if img.this_image() == 0 {
                    let buf = [7u64; 64];
                    for _ in 0..MICRO_REPS {
                        ca.write(img, 1, 0, &buf);
                    }
                }
            });
            img.coarray_free(&w, ca);
            delta(&after, &before)
        }));
        rows.push(micro_row("micro:get", kind, |img| {
            let w = img.team_world();
            let ca: caf::Coarray<u64> = img.coarray_alloc(&w, 64);
            let (before, after) = metered(img, |img| {
                if img.this_image() == 0 {
                    let mut buf = [0u64; 64];
                    for _ in 0..MICRO_REPS {
                        ca.read(img, 1, 0, &mut buf);
                    }
                }
            });
            img.coarray_free(&w, ca);
            delta(&after, &before)
        }));
        rows.push(micro_row("micro:notify", kind, |img| {
            let w = img.team_world();
            let ev = img.event_alloc(&w);
            let (before, after) = metered(img, |img| {
                if img.this_image() == 0 {
                    for _ in 0..MICRO_REPS {
                        img.event_notify(&w, &ev, 1);
                    }
                } else if img.this_image() == 1 {
                    for _ in 0..MICRO_REPS {
                        img.event_wait(&ev);
                    }
                }
            });
            delta(&after, &before)
        }));
        for p in FFT_P {
            let deltas = CafUniverse::run_with_config(p, fusion_like(kind), |img| {
                let (before, after) = metered(img, |img| {
                    let team = img.team_world();
                    fft::run(img, &team, FFT_LOG2_SIZE);
                });
                delta(&after, &before)
            });
            let ledger = sum_deltas(deltas.iter().map(Vec::as_slice));
            let info = [("log2_size", FFT_LOG2_SIZE as f64)];
            rows.push(Row::ledger("fft", p, kind, FlushMode::All, &ledger, &info));
        }
        if kind == SubstrateKind::Mpi {
            // CAF-GASNet has no remote atomics (fetch_add panics there).
            rows.push(micro_row("micro:atomic", kind, |img| {
                let w = img.team_world();
                let ca: caf::Coarray<u64> = img.coarray_alloc(&w, 1);
                let (before, after) = metered(img, |img| {
                    if img.this_image() == 0 {
                        for _ in 0..MICRO_REPS {
                            ca.fetch_add(img, 1, 0, 1);
                        }
                    }
                });
                img.coarray_free(&w, ca);
                delta(&after, &before)
            }));
        }
    }
    rows
}

type Snapshot = Vec<(DelayOp, u64, u64)>;

/// Barrier-bracketed meter capture: every image's costs inside `body`
/// (including receive-side charges) land in the delta.
fn metered(img: &caf::Image, body: impl Fn(&caf::Image)) -> (Snapshot, Snapshot) {
    let w = img.team_world();
    img.barrier(&w);
    let before = img.delay_meter_snapshot();
    body(img);
    img.barrier(&w);
    let after = img.delay_meter_snapshot();
    (before, after)
}

fn delta(after: &Snapshot, before: &Snapshot) -> Snapshot {
    after
        .iter()
        .zip(before.iter())
        .map(|(&(op, ca, na), &(_, cb, nb))| (op, ca - cb, na - nb))
        .collect()
}

fn micro_row(
    name: &str,
    kind: SubstrateKind,
    body: impl Fn(&caf::Image) -> Snapshot + Send + Sync,
) -> Row {
    let deltas = CafUniverse::run_with_config(MICRO_P, fusion_like(kind), body);
    let ledger = sum_deltas(deltas.iter().map(Vec::as_slice));
    let info = [("reps", MICRO_REPS as f64)];
    Row::ledger(name, MICRO_P, kind, FlushMode::All, &ledger, &info)
}

fn substrate_label(kind: SubstrateKind) -> &'static str {
    match kind {
        SubstrateKind::Mpi => "caf-mpi",
        SubstrateKind::Gasnet => "caf-gasnet",
    }
}

/// Sum per-image meter deltas into one per-op (count, ns) ledger, in
/// `ALL_DELAY_OPS` order.
fn sum_deltas<'a>(deltas: impl Iterator<Item = &'a [(DelayOp, u64, u64)]>) -> Snapshot {
    let mut acc: Vec<(DelayOp, u64, u64)> =
        ALL_DELAY_OPS.iter().map(|&op| (op, 0, 0)).collect();
    for d in deltas {
        for &(op, c, n) in d {
            let slot = &mut acc[op.index()];
            slot.1 += c;
            slot.2 += n;
        }
    }
    acc
}

/// The count a ledger charges to `op`.
fn count(ledger: &[(DelayOp, u64, u64)], op: DelayOp) -> u64 {
    ledger.iter().filter(|e| e.0 == op).map(|e| e.1).sum()
}

fn agg_sweep(smoke: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for agg_on in [false, true] {
            rows.push(agg_bpp_row(kind, agg_on));
        }
    }
    let ps: &[usize] = if smoke { &AGG_RA_P_SMOKE } else { &AGG_RA_P_FULL };
    for &p in ps {
        for mode in ["direct", "agg", "agg-routed"] {
            rows.push(agg_ra_row(p, mode));
        }
    }
    let ps: &[usize] = if smoke { &AGG_NOTIFY_P_SMOKE } else { &AGG_NOTIFY_P_FULL };
    for &p in ps {
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            rows.push(agg_notify_row(p, flush));
        }
    }
    rows
}

/// One origin streams `AGG_BPP_RECORDS` single-u64 puts at one target.
/// Direct: one wire message per put (8 payload bytes each). Aggregated:
/// one batched AM per drained bucket, so payload-bytes-per-packet jumps by
/// the bucket record capacity.
fn agg_bpp_row(kind: SubstrateKind, agg_on: bool) -> Row {
    let agg = if agg_on { AggConfig::on() } else { AggConfig::default() };
    let cfg = CafConfig { agg, ..fusion_like(kind) };
    let outs = CafUniverse::run_with_config(2, cfg, |img| {
        let w = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&w, AGG_BPP_RECORDS);
        let (before, after) = metered(img, |img| {
            img.finish_fast(&w, |img| {
                if img.this_image() == 0 {
                    for i in 0..AGG_BPP_RECORDS {
                        img.copy_async_put(&ca, 1, i, &[i as u64], AsyncOpts::default());
                    }
                }
            });
        });
        let stats = img.agg_stats();
        img.coarray_free(&w, ca);
        (delta(&after, &before), stats)
    });
    let payload = (AGG_BPP_RECORDS * 8) as f64;
    let origin = &outs[0];
    let packets = if agg_on {
        origin.1.drained_buckets as f64
    } else {
        // One RMA put per record, charged at the origin in program order.
        count(&origin.0, DelayOp::RmaPut) as f64
    };
    Row::new(
        "agg-bpp",
        2,
        substrate_label(kind),
        if agg_on { "agg" } else { "direct" },
        &[
            ("records", AGG_BPP_RECORDS as f64),
            ("packets", packets),
            ("bytes_per_packet", payload / packets.max(1.0)),
        ],
        &[
            ("payload_bytes", payload),
            ("enqueued", origin.1.enqueued as f64),
            ("drained_records", origin.1.drained_records as f64),
        ],
    )
}

/// GUPS-shaped scattered updates on CAF-MPI: per-update remote atomics
/// (`direct`) vs coalesced accumulate records (`agg` / `agg-routed`).
/// Gate = origin-program-order counters only; the modeled throughput proxy
/// (whose denominator includes termination-loop rounds, which are
/// timing-dependent) stays in `info`.
fn agg_ra_row(p: usize, mode: &'static str) -> Row {
    let agg = match mode {
        "direct" => AggConfig::default(),
        "agg" => AggConfig::on(),
        _ => AggConfig::routed(),
    };
    let cfg = CafConfig { agg, ..fusion_like(SubstrateKind::Mpi) };
    let updates = AGG_RA_UPDATES_PER_P * p;
    let local = 1usize << AGG_RA_LOG2_LOCAL;
    let mask = (local * p - 1) as u64;
    let outs = CafUniverse::run_with_config(p, cfg, move |img| {
        let w = img.team_world();
        let table: Coarray<u64> = img.coarray_alloc(&w, local);
        let me = img.this_image();
        let (before, after) = metered(img, |img| {
            let run_updates = |img: &caf::Image| {
                let mut ran = starts((me * updates) as i64);
                for _ in 0..updates {
                    ran = lcg_next(ran);
                    let idx = (ran & mask) as usize;
                    let (dest, off) = (idx >> AGG_RA_LOG2_LOCAL, idx & (local - 1));
                    if mode == "direct" {
                        table.fetch_add(img, dest, off, ran);
                    } else {
                        img.agg_accumulate_xor(&table, dest, off, ran);
                    }
                }
            };
            if mode == "direct" {
                run_updates(img);
                img.barrier(&w);
            } else {
                img.finish(&w, run_updates);
            }
        });
        let stats = img.agg_stats();
        img.coarray_free(&w, table);
        (delta(&after, &before), stats)
    });
    let sum = |f: fn(&caf::AggStats) -> u64| outs.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    let atomics: u64 = outs.iter().map(|(d, _)| count(d, DelayOp::RmaAtomic)).sum();
    // Critical-path image: max over images of its origin-charged modeled ns.
    let max_ns = outs
        .iter()
        .map(|(d, _)| {
            d.iter()
                .filter(|(op, _, _)| GATE_OPS.contains(op))
                .map(|&(_, _, n)| n)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let total_updates = (updates * p) as f64;
    Row::new(
        "agg-ra",
        p,
        "caf-mpi",
        mode,
        &[
            ("updates", total_updates),
            ("rma_atomics", atomics as f64),
            ("agg_records", sum(|s| s.enqueued)),
            ("agg_batches", sum(|s| s.drained_buckets)),
            ("agg_forwards", sum(|s| s.forwarded)),
        ],
        &[
            ("proxy_gups", if max_ns > 0 { total_updates / max_ns as f64 } else { 0.0 }),
            ("origin_ns_max", max_ns as f64),
        ],
    )
}

/// Put-burst + ring notify with aggregation ON, across the flush-mode
/// matrix: the PR-4 per-notify flush shape (Θ(P) under `all`, flat under
/// the targeted modes) must be preserved when every put rides a bucket.
fn agg_notify_row(p: usize, flush: FlushMode) -> Row {
    let cfg = CafConfig {
        agg: AggConfig::on(),
        flush,
        ..fusion_like(SubstrateKind::Mpi)
    };
    let outs = CafUniverse::run_with_config(p, cfg, move |img| {
        let w = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&w, AGG_NOTIFY_RECORDS);
        let ev = img.event_alloc(&w);
        let right = (img.this_image() + 1) % p;
        let (before, after) = metered(img, |img| {
            for round in 0..AGG_NOTIFY_ROUNDS {
                for i in 0..AGG_NOTIFY_RECORDS {
                    img.copy_async_put(&ca, right, i, &[(round + i) as u64], AsyncOpts::default());
                }
                img.event_notify(&w, &ev, right);
                img.event_wait(&ev);
            }
        });
        let stats = img.agg_stats();
        img.coarray_free(&w, ca);
        (delta(&after, &before), stats)
    });
    let flushes = outs.iter().map(|(d, _)| count(d, DelayOp::FlushPerTarget)).sum::<u64>() as f64;
    let batches = outs.iter().map(|(_, s)| s.drained_buckets).sum::<u64>() as f64;
    let records = outs.iter().map(|(_, s)| s.enqueued).sum::<u64>() as f64;
    let notifies = (p * AGG_NOTIFY_ROUNDS) as f64;
    Row::new(
        "agg-notify",
        p,
        "caf-mpi",
        flush.name(),
        &[("agg_records", records), ("agg_batches", batches), ("flush_per_target", flushes)],
        &[
            ("notifies", notifies),
            ("flushes_per_notify", flushes / notifies),
            ("flushes_per_batch", flushes / batches.max(1.0)),
        ],
    )
}

/// `field` of the row keyed `key`.
fn lookup(rows: &[Row], key: &str, field: &str) -> Result<f64, String> {
    rows.iter()
        .find(|r| r.key() == key)
        .and_then(|r| r.get(field))
        .ok_or_else(|| format!("missing {field} of row {key}"))
}

/// The tentpole shape of one row family's CAF-MPI rows (`ra` or
/// `agg-notify`), between its smallest and largest P: the per-notify
/// flush charge under `flush_all` is Θ(P) (2 windows × P ranks), each
/// targeted mode pays only the dirty partner — flat in P — and
/// `flush_all` at the largest P is at least 3× each targeted mode.
fn flush_shape(rows: &[Row], bench: &str) -> Result<(), String> {
    let ps = rows.iter().filter(|r| r.bench == bench && r.substrate == "caf-mpi").map(|r| r.p);
    let (Some(pmin), Some(pmax)) = (ps.clone().min(), ps.max()) else {
        return Err(format!("no caf-mpi {bench} rows"));
    };
    let fpn = |p: usize, mode: &str| {
        lookup(rows, &format!("{bench}/p{p}/caf-mpi/{mode}"), "flushes_per_notify")
    };
    let (all_min, all_max) = (fpn(pmin, "all")?, fpn(pmax, "all")?);
    let growth = all_max / all_min.max(f64::EPSILON);
    let expected = pmax as f64 / pmin as f64;
    if growth < 0.5 * expected {
        return Err(format!(
            "{bench}: flush_all per-notify cost not Θ(P): grew {growth:.2}x from P={pmin} to \
             P={pmax} (expected ~{expected:.0}x)"
        ));
    }
    for mode in ["targeted", "rflush"] {
        let (t_min, t_max) = (fpn(pmin, mode)?, fpn(pmax, mode)?);
        if t_max > 2.0 * t_min.max(1.0) {
            return Err(format!(
                "{bench}: {mode} per-notify flushes grew with P: {t_min:.2} @P={pmin} -> \
                 {t_max:.2} @P={pmax}"
            ));
        }
        if all_max < 3.0 * t_max.max(1.0) {
            return Err(format!(
                "{bench}: flush_all @P={pmax} ({all_max:.2}/notify) not clearly above {mode} \
                 ({t_max:.2}/notify)"
            ));
        }
    }
    Ok(())
}

/// BENCH_ra.json's shape: [`flush_shape`], and at least one executed
/// task-mode row, each within `RA_HI_AGREEMENT` of its analytic
/// per-notify flush prediction.
fn ra_shape(rows: &[Row]) -> Result<(), String> {
    flush_shape(rows, "ra")?;
    let mut executed = 0usize;
    for r in rows {
        let Some(modeled) = r.get("modeled_flushes_per_notify") else { continue };
        let measured = r
            .get("flushes_per_notify")
            .ok_or_else(|| format!("executed row {} missing flushes_per_notify", r.key()))?;
        if (measured - modeled).abs() > RA_HI_AGREEMENT * modeled {
            return Err(format!(
                "executed row {} disagrees with the model: {measured:.2} flushes/notify \
                 measured vs {modeled:.2} predicted",
                r.key()
            ));
        }
        executed += 1;
    }
    if executed == 0 {
        return Err("no executed task-mode rows in BENCH_ra.json".into());
    }
    Ok(())
}

/// BENCH_agg.json's shape: aggregated bytes per packet at least 8× the
/// direct small-put path on both substrates; routed aggregation beats the
/// per-update direct path on modeled RA throughput at the sweep's largest
/// P, which a full sweep takes to at least 32; and [`flush_shape`] under
/// aggregation.
fn agg_shape(rows: &[Row], smoke: bool) -> Result<(), String> {
    for sub in ["caf-mpi", "caf-gasnet"] {
        let bpp =
            |mode: &str| lookup(rows, &format!("agg-bpp/p2/{sub}/{mode}"), "bytes_per_packet");
        let (direct, agg) = (bpp("direct")?, bpp("agg")?);
        if agg < 8.0 * direct {
            return Err(format!("{sub}: aggregated bytes/packet {agg:.1} < 8x direct {direct:.1}"));
        }
    }
    let pmax = rows
        .iter()
        .filter(|r| r.bench == "agg-ra")
        .map(|r| r.p)
        .max()
        .ok_or("no agg-ra rows")?;
    if !smoke && pmax < 32 {
        return Err(format!("agg-ra full sweep must reach P>=32 (got {pmax})"));
    }
    let gups = |mode: &str| lookup(rows, &format!("agg-ra/p{pmax}/caf-mpi/{mode}"), "proxy_gups");
    let (direct, routed) = (gups("direct")?, gups("agg-routed")?);
    if routed <= direct {
        return Err(format!(
            "routed aggregation not faster at P={pmax}: {routed:.6} vs direct {direct:.6} \
             proxy GUPS"
        ));
    }
    flush_shape(rows, "agg-notify")
}

/// Compares a report's rows against its baseline's. Fails a gated field
/// more than [`THRESHOLD`] above its baseline, a gate-field set that
/// differs, a row the baseline lacks, and — unless `smoke`, whose rows are
/// a subset — a baseline row the report lacks. Returns the failures and
/// the notes on fields that improved by more than the threshold.
fn gate(base: &[Row], cand: &[Row], smoke: bool) -> (Vec<String>, Vec<String>) {
    let by_key: BTreeMap<String, &Row> = base.iter().map(|r| (r.key(), r)).collect();
    let (mut errs, mut notes) = (Vec::new(), Vec::new());
    for row in cand {
        let key = row.key();
        let Some(b) = by_key.get(&key) else {
            errs.push(format!(
                "row {key} missing from baseline (run `cargo xtask bench --update-baseline`)"
            ));
            continue;
        };
        if b.gate.keys().ne(row.gate.keys()) {
            errs.push(format!("row {key}: gate field set differs from baseline"));
            continue;
        }
        for (k, &new) in &row.gate {
            let old = b.gate[k];
            if new > old * (1.0 + THRESHOLD) + f64::EPSILON {
                errs.push(format!(
                    "row {key}: {k} regressed {old} -> {new} (+{:.1}%, limit {:.0}%)",
                    (new / old.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                    THRESHOLD * 100.0
                ));
            } else if old > 0.0 && new < old * (1.0 - THRESHOLD) {
                notes.push(format!(
                    "row {key}: {k} improved {old} -> {new}; \
                     consider `cargo xtask bench --update-baseline`"
                ));
            }
        }
    }
    if !smoke {
        let have: Vec<String> = cand.iter().map(Row::key).collect();
        for key in by_key.keys().filter(|k| !have.contains(k)) {
            errs.push(format!("baseline row {key} missing from this full run"));
        }
    }
    (errs, notes)
}

/// Reads a `caf-bench-v1` report back into rows.
fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    match obj.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("unknown schema {other:?} (want {SCHEMA})")),
    }
    let rows = obj.get("rows").and_then(Value::as_array).ok_or("missing rows array")?;
    rows.iter()
        .map(|r| {
            let r = r.as_object().ok_or("row is not an object")?;
            let s = |k: &str| -> Result<String, String> {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("row missing string field {k}"))
            };
            let p = r.get("p").and_then(Value::as_f64).ok_or("row missing p")? as usize;
            let mut row = Row::new(&s("bench")?, p, &s("substrate")?, &s("flush")?, &[], &[]);
            let key = row.key();
            for (k, fields) in [("gate", &mut row.gate), ("info", &mut row.info)] {
                let obj = r
                    .get(k)
                    .and_then(Value::as_object)
                    .ok_or_else(|| format!("row {key} missing {k} object"))?;
                for (name, val) in obj {
                    let v = val
                        .as_f64()
                        .ok_or_else(|| format!("row {key}: {k}.{name} not a number"))?;
                    fields.insert(name.clone(), v);
                }
            }
            Ok(row)
        })
        .collect()
}

/// The `caf-bench-v1` report (hand-rolled JSON; [`parse_rows`] reads it
/// back): every field on its own line, sorted by name, with six decimals.
fn render(rows: &[Row], kind: &str, smoke: bool) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"kind\": \"{kind}\",\n  \"smoke\": {smoke},\n  \
         \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"bench\": \"{}\",", r.bench);
        let _ = writeln!(s, "      \"p\": {},", r.p);
        let _ = writeln!(s, "      \"substrate\": \"{}\",", r.substrate);
        let _ = writeln!(s, "      \"flush\": \"{}\",", r.flush);
        for (name, fields, end) in [("gate", &r.gate, ","), ("info", &r.info, "")] {
            let _ = writeln!(s, "      \"{name}\": {{");
            for (j, (k, v)) in fields.iter().enumerate() {
                let comma = if j + 1 < fields.len() { "," } else { "" };
                let _ = writeln!(s, "        \"{k}\": {v:.6}{comma}");
            }
            let _ = writeln!(s, "      }}{end}");
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline `BENCH_{kind}.json`.
    fn committed(kind: &str) -> Vec<Row> {
        let path = workspace_root().join(format!("BENCH_{kind}.json"));
        let text = std::fs::read_to_string(path).expect("committed baseline");
        parse_rows(&text).expect("committed baseline parses")
    }

    /// Sets `field` (gated or info, wherever it lives) of the row keyed `key`.
    fn set(rows: &mut [Row], key: &str, field: &str, v: f64) {
        let r = rows.iter_mut().find(|r| r.key() == key).expect("row");
        let fields = if r.gate.contains_key(field) { &mut r.gate } else { &mut r.info };
        *fields.get_mut(field).expect("field") = v;
    }

    fn shape_err(r: Result<(), String>, needle: &str) {
        let e = r.expect_err("the shape must fail");
        assert!(e.contains(needle), "{e:?} does not mention {needle:?}");
    }

    #[test]
    fn committed_reports_gate_against_themselves() {
        for kind in ["ra", "micro", "agg"] {
            let rows = committed(kind);
            assert!(!rows.is_empty());
            let (errs, notes) = gate(&rows, &rows, false);
            assert!(errs.is_empty() && notes.is_empty(), "{kind}: {errs:?} {notes:?}");
        }
        ra_shape(&committed("ra")).unwrap();
        agg_shape(&committed("agg"), false).unwrap();
    }

    #[test]
    fn render_parses_back() {
        for kind in ["ra", "micro", "agg"] {
            let rows = committed(kind);
            assert_eq!(parse_rows(&render(&rows, kind, false)).unwrap(), rows);
        }
        let ledger: Snapshot = ALL_DELAY_OPS.iter().map(|&op| (op, 3, 7)).collect();
        let rows = [
            Row::ledger("micro:put", 4, SubstrateKind::Gasnet, FlushMode::All, &ledger, &[]),
            Row::new("agg-bpp", 2, "caf-mpi", "agg", &[("packets", 4.0)], &[]),
        ];
        assert_eq!(rows[0].flush, "n/a");
        assert_eq!(rows[0].get("rma_put_ns"), Some(7.0));
        assert!(rows[0].info.contains_key("p2p_receive_count"));
        assert_eq!(parse_rows(&render(&rows, "micro", true)).unwrap(), rows);
    }

    #[test]
    fn gated_regression_fails_naming_row_and_field() {
        let base = committed("ra");
        let mut cand = base.clone();
        let old = lookup(&base, "ra/p8/caf-mpi/all", "flush_per_target_count").unwrap();
        set(&mut cand, "ra/p8/caf-mpi/all", "flush_per_target_count", old * 1.2);
        let (errs, _) = gate(&base, &cand, false);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("row ra/p8/caf-mpi/all: flush_per_target_count regressed"));
    }

    #[test]
    fn improvement_passes_with_a_note() {
        let base = committed("agg");
        let mut cand = base.clone();
        set(&mut cand, "agg-bpp/p2/caf-mpi/direct", "packets", 256.0 * 0.8);
        let (errs, notes) = gate(&base, &cand, false);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(notes.len(), 1);
        assert!(notes[0].starts_with("row agg-bpp/p2/caf-mpi/direct: packets improved"));
    }

    #[test]
    fn changed_gate_field_set_fails() {
        let base = committed("micro");
        let mut cand = base.clone();
        cand[0].gate.insert("rma_put_bytes".into(), 0.0);
        let (errs, _) = gate(&base, &cand, false);
        assert_eq!(errs, [format!("row {}: gate field set differs from baseline", base[0].key())]);
    }

    #[test]
    fn row_missing_from_baseline_fails_full_and_smoke() {
        let base = committed("ra");
        let mut cand = base.clone();
        cand[0].p = 3;
        for smoke in [false, true] {
            let (errs, _) = gate(&base[1..], &cand, smoke);
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert!(errs[0].contains("row ra/p3/caf-mpi/all missing from baseline"));
        }
    }

    #[test]
    fn baseline_row_missing_from_a_full_run_fails_but_not_from_smoke() {
        let base = committed("ra");
        let cand: Vec<Row> = base.iter().filter(|r| r.p != 1024).cloned().collect();
        let (errs, _) = gate(&base, &cand, false);
        assert_eq!(errs.len(), 3, "{errs:?}");
        for e in errs {
            assert!(e.starts_with("baseline row ra/p1024/") && e.ends_with("missing from this full run"));
        }
        assert!(gate(&base, &cand, true).0.is_empty());
    }

    #[test]
    fn flush_all_not_theta_p_fails() {
        let mut rows = committed("ra");
        for r in rows.iter_mut().filter(|r| r.flush == "all" && r.substrate == "caf-mpi") {
            r.info.insert("flushes_per_notify".into(), 4.0);
            r.info.remove("modeled_flushes_per_notify");
        }
        shape_err(ra_shape(&rows), "not Θ(P)");
        let mut rows = committed("agg");
        set(&mut rows, "agg-notify/p16/caf-mpi/all", "flushes_per_notify", 4.0);
        shape_err(agg_shape(&rows, false), "agg-notify: flush_all per-notify cost not Θ(P)");
    }

    #[test]
    fn targeted_mode_growing_with_p_fails() {
        let mut rows = committed("ra");
        set(&mut rows, "ra/p1024/caf-mpi/rflush", "flushes_per_notify", 8.0);
        set(&mut rows, "ra/p1024/caf-mpi/rflush", "modeled_flushes_per_notify", 8.0);
        shape_err(ra_shape(&rows), "rflush per-notify flushes grew with P");
        let mut rows = committed("agg");
        set(&mut rows, "agg-notify/p16/caf-mpi/targeted", "flushes_per_notify", 3.0);
        shape_err(agg_shape(&rows, false), "agg-notify: targeted per-notify flushes grew with P");
    }

    #[test]
    fn flush_all_not_clearly_above_targeted_fails() {
        let mut rows = committed("agg");
        for p in [2, 16] {
            let key = format!("agg-notify/p{p}/caf-mpi/all");
            set(&mut rows, &key, "flushes_per_notify", p as f64 / 8.0);
        }
        shape_err(agg_shape(&rows, false), "not clearly above targeted");
    }

    #[test]
    fn executed_row_off_its_model_fails() {
        let mut rows = committed("ra");
        // Predicted 512 per notify; measured 30 % above it.
        set(&mut rows, "ra/p256/caf-mpi/all", "flushes_per_notify", 512.0 * 1.3);
        shape_err(ra_shape(&rows), "executed row ra/p256/caf-mpi/all disagrees with the model");
    }

    #[test]
    fn no_executed_row_fails() {
        let mut rows = committed("ra");
        rows.retain(|r| r.get("executed_tasks").is_none());
        assert_eq!(rows.iter().map(|r| r.p).max(), Some(16));
        shape_err(ra_shape(&rows), "no executed task-mode rows");
    }

    #[test]
    fn aggregation_below_8x_bytes_per_packet_fails() {
        let mut rows = committed("agg");
        set(&mut rows, "agg-bpp/p2/caf-gasnet/agg", "bytes_per_packet", 7.0 * 8.0);
        shape_err(agg_shape(&rows, false), "caf-gasnet: aggregated bytes/packet 56.0 < 8x direct");
    }

    #[test]
    fn routed_not_beating_direct_fails() {
        let mut rows = committed("agg");
        let direct = lookup(&rows, "agg-ra/p32/caf-mpi/direct", "proxy_gups").unwrap();
        set(&mut rows, "agg-ra/p32/caf-mpi/agg-routed", "proxy_gups", direct);
        shape_err(agg_shape(&rows, false), "routed aggregation not faster at P=32");
    }

    #[test]
    fn full_agg_sweep_short_of_p32_fails() {
        let mut rows = committed("agg");
        rows.retain(|r| !(r.bench == "agg-ra" && r.p == 32));
        shape_err(agg_shape(&rows, false), "must reach P>=32");
        agg_shape(&rows, true).unwrap();
    }
}
