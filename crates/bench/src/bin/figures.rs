//! Regenerate every table and figure of the paper.
//!
//! ```text
//! figures                      # all figures, model vs paper
//! figures fig3 fig6            # a subset by id
//! figures table1               # Table 1
//! figures real                 # append small-scale real-execution sections
//! figures ablations            # DESIGN §5's design ablations, timed
//! figures --json               # emit the selected figures as JSON
//! figures trace                # traced real RA run: decomposition from caf-trace
//! figures fig4 --from-trace    # Figure 4 derived from a real traced run
//! figures trace --trace-out t.json   # also export Chrome trace_event JSON
//! figures check                # replay kernels under the caf-check sanitizer
//! figures model                # bounded schedule exploration (caf-model)
//! ```

use std::time::{Duration, Instant};

use caf::{AsyncOpts, CafConfig, Coarray, FlushMode, Image, SubstrateKind};
use caf_bench::{
    fig1_configs, fusion_like, launch_footprint, real_cgpop, real_fft, real_hpl, real_ra,
    timed_on_rank0, traced_ra,
};
use caf_hpcc::cgpop::ExchangeMode;
use caf_netmodel::figures;

/// `real`'s Figure-1 section reports heap actually held beside what
/// `MemAccount` accounts for.
#[global_allocator]
static GLOBAL: caf_bench::heap::Counting = caf_bench::heap::Counting;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--trace-out" {
            match it.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a file argument");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(a);
        }
    }
    let want_real = args.iter().any(|a| a == "real");
    let want_json = args.iter().any(|a| a == "--json");
    let from_trace = args.iter().any(|a| a == "--from-trace");
    // "trace" and "check" act as pseudo figure ids: `figures trace`
    // prints only the traced sections, `figures check` only the
    // sanitizer sections.
    let want_trace = args.iter().any(|a| a == "trace");
    let want_check = args.iter().any(|a| a == "check");
    let want_model = args.iter().any(|a| a == "model");
    let want_ablations = args.iter().any(|a| a == "ablations");
    let filters: Vec<&String> = args
        .iter()
        .filter(|a| {
            a.as_str() != "real" && a.as_str() != "--json" && a.as_str() != "--from-trace"
        })
        .collect();
    let selected = |id: &str| filters.is_empty() || filters.iter().any(|f| f.as_str() == id);

    if want_json {
        let figs: Vec<_> = figures::all_figures()
            .into_iter()
            .filter(|f| selected(f.id))
            .collect();
        println!("[");
        for (i, fig) in figs.iter().enumerate() {
            print!("{}", fig.to_json());
            println!("{}", if i + 1 < figs.len() { "," } else { "" });
        }
        println!("]");
        return;
    }

    if selected("table1") {
        print!("{}", figures::table1());
        println!();
    }

    for fig in figures::all_figures() {
        // With --from-trace, Figure 4 comes from the real traced run below
        // instead of the model.
        if selected(fig.id) && !(from_trace && fig.id == "fig4") {
            println!("{}", fig.render());
        }
    }

    if want_trace || (from_trace && selected("fig4")) || trace_out.is_some() {
        trace_sections(trace_out.as_deref());
    }

    if want_real {
        real_sections();
    }

    if want_check {
        check_sections();
    }

    if want_model {
        model_sections();
    }

    if want_ablations {
        ablation_sections();
    }
}

/// DESIGN §5's ablations on CAF-MPI with the [`fusion_like`] cost tables:
/// each pair of designs runs a fixed number of operations and reports
/// image 0's wall time per operation.
fn ablation_sections() {
    println!("== ablations (DESIGN §5; CAF-MPI, us per operation on image 0) ==");
    println!("{:>20} {:>24} {:>7} {:>6} {:>10}", "ablation", "variant", "images", "reps", "us/op");
    let row = |ablation: &str, variant: &str, p: usize, reps: u64, run: &dyn Fn(u64) -> Duration| {
        let us = run(reps).as_secs_f64() * 1e6 / reps as f64;
        println!("{ablation:>20} {variant:>24} {p:>7} {reps:>6} {us:>10.2}");
    };
    let mpi = fusion_like(SubstrateKind::Mpi);
    let targeted = CafConfig { flush: FlushMode::Targeted, ..mpi };

    // Θ(P) flush_all in event_notify vs flushing only dirty targets; four
    // windows, so flush_all walks all of them × P ranks.
    for flush in [FlushMode::All, FlushMode::Targeted] {
        let cfg = CafConfig { flush, ..mpi };
        row("notify_flush", flush.name(), 8, 5000, &|n| notify_flush(cfg, n));
    }
    // ISEND/RECV events vs the §3.4 FETCH_AND_OP polling alternative (a
    // round trip can take milliseconds when the poller starves the poster).
    row("event_impl", "isend_recv", 2, 5000, &|n| event_isend(mpi, n));
    row("event_impl", "fetch_and_op_poll", 2, 200, &|n| event_poll(mpi, n));
    // Remote-completion put: the §3.3 case-4 AM path vs put+flush+notify.
    for payload in [64usize, 2048] {
        let am = format!("am_path/{payload}");
        row("put_dst_event", &am, 2, 5000, &|n| put_dst_event(mpi, payload, true, n));
        let direct = format!("put_flush_notify/{payload}");
        row("put_dst_event", &direct, 2, 5000, &|n| put_dst_event(targeted, payload, false, n));
    }
    // Shipping-free finish: termination detection vs flush_all + barrier.
    row("finish_impl", "termination_detection", 4, 2000, &|n| finish_impl(mpi, false, n));
    row("finish_impl", "fast_flush_barrier", 4, 2000, &|n| finish_impl(mpi, true, n));
    // What MPI_ALLTOALL's tuning buys: pairwise vs linear exchange.
    row("alltoall_algorithm", "pairwise_tuned", 8, 1000, &|n| alltoall_algorithm(mpi, true, n));
    row("alltoall_algorithm", "linear_naive", 8, 1000, &|n| alltoall_algorithm(mpi, false, n));
}

/// Image 0 writes one element to image 1 and notifies it, `reps` times.
fn notify_flush(cfg: CafConfig, reps: u64) -> Duration {
    timed_on_rank0(8, cfg, |img| {
        let w = img.team_world();
        let cas: Vec<Coarray<u64>> = (0..4).map(|_| img.coarray_alloc(&w, 16)).collect();
        let ev = img.event_alloc(&w);
        img.sync_all();
        let t = Instant::now();
        match img.this_image() {
            0 => (0..reps).for_each(|_| {
                cas[0].write(img, 1, 0, &[1u64]);
                img.event_notify(&w, &ev, 1);
            }),
            1 => (0..reps).for_each(|_| img.event_wait(&ev)),
            _ => {}
        }
        let d = t.elapsed();
        img.sync_all();
        cas.into_iter().for_each(|ca| img.coarray_free(&w, ca));
        d
    })
}

/// Event ping-pong over the runtime's ISEND-based notify.
fn event_isend(cfg: CafConfig, reps: u64) -> Duration {
    timed_on_rank0(2, cfg, |img| {
        let w = img.team_world();
        let (ping, pong) = (img.event_alloc(&w), img.event_alloc(&w));
        img.sync_all();
        let t = Instant::now();
        for _ in 0..reps {
            if img.this_image() == 0 {
                img.event_notify(&w, &ping, 1);
                img.event_wait(&pong);
            } else {
                img.event_wait(&ping);
                img.event_notify(&w, &pong, 0);
            }
        }
        let d = t.elapsed();
        img.sync_all();
        d
    })
}

/// Event ping-pong as `fetch_add` posts and polling local reads.
fn event_poll(cfg: CafConfig, reps: u64) -> Duration {
    timed_on_rank0(2, cfg, |img| {
        let w = img.team_world();
        let counters: Coarray<u64> = img.coarray_alloc(&w, 2); // [ping, pong]
        img.sync_all();
        let me = img.this_image();
        let wait_slot = |img: &Image, slot: usize, round: u64| {
            let mut out = [0u64];
            while {
                counters.local_read(img, slot, &mut out);
                out[0] <= round
            } {
                std::hint::spin_loop();
            }
        };
        let t = Instant::now();
        for round in 0..reps {
            if me == 0 {
                counters.fetch_add(img, 1, 0, 1u64);
                wait_slot(img, 1, round);
            } else {
                wait_slot(img, 0, round);
                counters.fetch_add(img, 0, 1, 1u64);
            }
        }
        let d = t.elapsed();
        img.sync_all();
        img.coarray_free(&w, counters);
        d
    })
}

/// `payload` elements to image 1 that it waits for: through a
/// destination event (`am_path`) or as a blocking write plus a notify.
fn put_dst_event(cfg: CafConfig, payload: usize, am_path: bool, reps: u64) -> Duration {
    timed_on_rank0(2, cfg, move |img| {
        let w = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&w, payload);
        let ev = img.event_alloc(&w);
        let data = vec![5u64; payload];
        img.sync_all();
        let t = Instant::now();
        for _ in 0..reps {
            if img.this_image() == 1 {
                img.event_wait(&ev);
            } else if am_path {
                img.copy_async_put(&ca, 1, 0, &data, AsyncOpts::with_dst(ev));
            } else {
                ca.write(img, 1, 0, &data);
                img.event_notify(&w, &ev, 1);
            }
        }
        let d = t.elapsed();
        img.sync_all();
        img.coarray_free(&w, ca);
        d
    })
}

/// A `finish` block (or `finish_fast`) around one async put to the right
/// neighbour.
fn finish_impl(cfg: CafConfig, fast: bool, reps: u64) -> Duration {
    timed_on_rank0(4, cfg, move |img| {
        let w = img.team_world();
        let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
        img.sync_all();
        let body = |img: &Image| {
            let peer = (img.this_image() + 1) % 4;
            img.copy_async_put(&ca, peer, 0, &[1u64], AsyncOpts::none());
        };
        let t = Instant::now();
        for _ in 0..reps {
            if fast {
                img.finish_fast(&w, body);
            } else {
                img.finish(&w, body);
            }
        }
        let d = t.elapsed();
        img.sync_all();
        img.coarray_free(&w, ca);
        d
    })
}

/// 256 words to every peer through mpisim's pairwise or linear alltoall.
fn alltoall_algorithm(cfg: CafConfig, tuned: bool, reps: u64) -> Duration {
    timed_on_rank0(8, cfg, move |img| {
        let mpi = img.mpi().expect("MPI substrate");
        let comm = mpi.world();
        let send: Vec<u64> = (0..8 * 256).map(|i| i as u64).collect();
        img.sync_all();
        let t = Instant::now();
        for _ in 0..reps {
            if tuned {
                mpi.alltoall(&comm, &send, 256).unwrap();
            } else {
                mpi.alltoall_linear(&comm, &send, 256).unwrap();
            }
        }
        let d = t.elapsed();
        img.sync_all();
        d
    })
}

/// Bounded schedule exploration with `caf-model`: exhaust the ping-pong
/// state space with and without sleep sets (reporting the DPOR reduction
/// factor), re-check the clean programs across a schedule budget, and
/// demonstrate both seeded counterexamples — the Fig 2 deadlock and the
/// schedule-dependent unflushed put — with their replay tokens. Exits
/// nonzero if a clean program is flagged, an expected bug is missed, or
/// the reduction factor drops below 2x, so CI can gate on it.
fn model_sections() {
    use caf_model::{explore, replay, scenarios, ExploreConfig, ExploreMode, OracleConfig};
    println!("== caf-model: bounded schedule exploration (DPOR-lite) ==");
    let mut bad = 0usize;

    // Sleep-set reduction on the fully-exhaustible ping-pong space.
    let pp = scenarios::ping_pong();
    let dfs = |sleep_sets| ExploreConfig {
        max_schedules: 5_000,
        mode: ExploreMode::Dfs { sleep_sets },
        oracle: None,
        ..ExploreConfig::default()
    };
    let naive = explore(&pp, &dfs(false));
    let dpor = explore(&pp, &dfs(true));
    println!(
        "-- DPOR reduction ({}; both modes exhaust the state space) --",
        pp.name
    );
    println!("{:>12} {:>10} {:>8} {:>9} {:>8}", "mode", "schedules", "pruned", "complete", "flagged");
    for (mode, r) in [("naive", &naive), ("sleep-set", &dpor)] {
        println!(
            "{mode:>12} {:>10} {:>8} {:>9} {:>8}",
            r.schedules, r.pruned, r.complete, r.flagged
        );
    }
    let factor = naive.schedules as f64 / dpor.schedules.max(1) as f64;
    println!("reduction: {factor:.1}x fewer executed schedules");
    if !(naive.complete && dpor.complete) || dpor.schedules * 2 > naive.schedules {
        eprintln!("caf-model: DPOR reduction below the 2x gate");
        bad += 1;
    }

    // Clean programs under the full oracle, bounded budget, both substrates.
    println!("\n-- clean programs, 120-schedule budget, epoch+race oracle --");
    println!("{:>28} {:>10} {:>8} {:>9} {:>8}", "scenario", "schedules", "pruned", "complete", "flagged");
    for sc in [
        scenarios::ring(SubstrateKind::Mpi),
        scenarios::ring(SubstrateKind::Gasnet),
        scenarios::event_ping_pong(SubstrateKind::Mpi),
        scenarios::event_ping_pong(SubstrateKind::Gasnet),
        scenarios::ra_round(SubstrateKind::Mpi),
        scenarios::ra_round(SubstrateKind::Gasnet),
        scenarios::waitgraph_targeted(),
    ] {
        let cfg = ExploreConfig {
            max_schedules: 120,
            oracle: Some(OracleConfig::default()),
            ..ExploreConfig::default()
        };
        let r = explore(&sc, &cfg);
        println!(
            "{:>28} {:>10} {:>8} {:>9} {:>8}",
            sc.name, r.schedules, r.pruned, r.complete, r.flagged
        );
        if r.flagged > 0 {
            for cx in &r.counterexamples {
                eprintln!("caf-model: {}: {} — {}", sc.name, cx.kind, cx.detail);
            }
            bad += r.flagged;
        }
    }

    // The Fig 2 deadlock, found instead of hung on.
    let fig2 = scenarios::fig2_deadlock();
    let cfg = ExploreConfig {
        max_schedules: 25,
        oracle: None,
        stop_at_first: true,
        ..ExploreConfig::default()
    };
    let r = explore(&fig2, &cfg);
    println!("\n-- {} --", fig2.name);
    match r.counterexamples.first() {
        Some(cx) if cx.kind == "deadlock" => {
            println!("found after {} schedule(s): {}", r.schedules, cx.detail);
            for line in cx.schedule.iter().rev().take(4).rev() {
                println!("{line}");
            }
            println!("replay token: {}", cx.token);
            let rp = replay(&fig2, &cfg, &cx.token);
            let same = rp.schedule == cx.schedule;
            println!("replay reproduces the schedule and deadlock: {same}");
            if !same {
                bad += 1;
            }
        }
        other => {
            eprintln!("caf-model: Fig 2 deadlock not found: {other:?}");
            bad += 1;
        }
    }

    // The seeded unflushed-put counterexample.
    let up = scenarios::unflushed_put();
    let cfg = ExploreConfig {
        max_schedules: 64,
        mode: ExploreMode::Random { seed: 0xCAF_2014, walks: 64 },
        oracle: Some(OracleConfig { epochs: true, races: false }),
        stop_at_first: true,
        ..ExploreConfig::default()
    };
    let r = explore(&up, &cfg);
    println!("\n-- {} (seed 0xCAF2014) --", up.name);
    match r.counterexamples.first() {
        Some(cx) if cx.kind == "read_before_flush" => {
            println!("found after {} walk(s): {}", r.schedules, cx.detail);
            println!("replay token: {}", cx.token);
        }
        other => {
            eprintln!("caf-model: unflushed-put bug not found: {other:?}");
            bad += 1;
        }
    }

    if bad > 0 {
        eprintln!("caf-model: {bad} gate failure(s)");
        std::process::exit(1);
    }
}

/// Record the RandomAccess and FFT kernels on both substrates and replay
/// each trace through the `caf-check` sanitizer (epoch legality +
/// happens-before races), then audit the figures' own traced RA run the
/// same way. Exits nonzero if anything is flagged, so CI can gate on it.
fn check_sections() {
    use caf_bench::checked::{checked_fft, checked_ra};
    println!("== caf-check sanitizer (RMA epoch legality + vector-clock races) ==");
    let mut flagged = 0usize;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        for (name, report) in [
            ("RandomAccess", checked_ra(4, kind, 8, 2000)),
            ("FFT", checked_fft(4, kind, 12)),
        ] {
            let label = match kind {
                SubstrateKind::Mpi => "CAF-MPI",
                SubstrateKind::Gasnet => "CAF-GASNet",
            };
            if report.is_clean() {
                println!("{label:>12} {name:<14} clean");
            } else {
                println!(
                    "{label:>12} {name:<14} {} violation(s), {} dropped",
                    report.violations.len(),
                    report.dropped
                );
                print!("{}", report.render());
                flagged += report.violations.len() + report.dropped;
            }
        }
    }

    // The trace `figures trace` records (cost tables on), audited alike.
    let (_, trace) = traced_ra(4, SubstrateKind::Mpi, 8, 1000, 1);
    let offline = caf_check::check_trace(&trace, caf_check::CheckConfig::default());
    if offline.is_clean() {
        println!("{:>12} {:<14} clean ({} events audited)", "offline", "RA trace", trace.events.len());
    } else {
        println!(
            "{:>12} {:<14} {} violation(s), {} dropped",
            "offline",
            "RA trace",
            offline.violations.len(),
            offline.dropped
        );
        print!("{}", offline.render());
        flagged += offline.violations.len() + offline.dropped;
    }

    if flagged > 0 {
        eprintln!("caf-check: {flagged} finding(s)");
        std::process::exit(1);
    }
}

/// Run the Figure-4 workload (miniature RandomAccess, `ra_mini`
/// parameters) under an active `caf-trace` session on both substrates and
/// print the trace-derived time decomposition. With `--trace-out FILE`,
/// also export each run as Chrome `trace_event` JSON (one file per
/// substrate, the substrate name inserted before the extension).
fn trace_sections(trace_out: Option<&str>) {
    use caf_trace::Cat;
    println!("== Figure 4 from trace (real traced RandomAccess run, 8 images) ==");
    let mut notify_share = Vec::new();
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let (row, trace) = traced_ra(8, kind, 9, 4000, 10);
        let d = trace.decomposition();
        println!(
            "-- {} ({:.5} GUP/s; {} events, {} dropped, {} stalls) --",
            row.substrate,
            row.metric,
            trace.events.len(),
            trace.dropped_events,
            trace.stalls.len()
        );
        print!("{}", d.render());
        for stall in &trace.stalls {
            println!("stall: {stall}");
        }
        if let Some(path) = trace_out {
            let path = substrate_path(path, row.substrate);
            std::fs::write(&path, trace.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("chrome trace written to {path}");
        }
        notify_share.push((row.substrate, d.median_share(Cat::EventNotify)));
        println!();
    }
    println!("event_notify median share (the Theta(P) flush_all signature, paper Fig 4):");
    for (substrate, share) in notify_share {
        println!("{:>12}: {:>5.1}%", substrate, share * 100.0);
    }
}

/// `out.json` + `CAF-MPI` -> `out.caf-mpi.json`.
fn substrate_path(path: &str, substrate: &str) -> String {
    let tag = substrate.to_lowercase();
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{tag}.{ext}"),
        _ => format!("{path}.{tag}"),
    }
}

fn real_sections() {
    println!("== real-execution (in-process fabric, 2-16 images) ==");
    println!("-- Figure 1 (runtime overhead, bytes/process: accounted by MemAccount,");
    println!("   and heap an image holds on entering its body; segment apart) --");
    println!(
        "{:>10} {:>22} {:>22} {:>22} {:>10}",
        "", "GASNet-only", "MPI-only", "duplicate", "GASNet"
    );
    println!(
        "{:>10} {:>12} {:>9} {:>12} {:>9} {:>12} {:>9} {:>10}",
        "images", "accounted", "heap", "accounted", "heap", "accounted", "heap", "segment"
    );
    for p in [2usize, 4, 8, 16] {
        let [g, m, d] = fig1_configs().map(|cfg| launch_footprint(p, cfg));
        println!(
            "{p:>10} {:>12} {:>9} {:>12} {:>9} {:>12} {:>9} {:>10}",
            g.accounted, g.heap, m.accounted, m.heap, d.accounted, d.heap, g.segment
        );
    }

    println!("\n-- RandomAccess (measured GUP/s) --");
    println!("{:>10} {:>14} {:>14}", "images", "CAF-MPI", "CAF-GASNet");
    for p in [2usize, 4, 8] {
        let m = real_ra(p, SubstrateKind::Mpi, 10, 20_000);
        let g = real_ra(p, SubstrateKind::Gasnet, 10, 20_000);
        println!("{p:>10} {:>14.5} {:>14.5}", m.metric, g.metric);
    }

    println!("\n-- FFT (measured GFlop/s) --");
    println!("{:>10} {:>14} {:>14}", "images", "CAF-MPI", "CAF-GASNet");
    for p in [2usize, 4, 8] {
        let m = real_fft(p, SubstrateKind::Mpi, 16);
        let g = real_fft(p, SubstrateKind::Gasnet, 16);
        println!("{p:>10} {:>14.4} {:>14.4}", m.metric, g.metric);
    }

    println!("\n-- HPL (measured GFlop/s) --");
    println!("{:>10} {:>14} {:>14}", "images", "CAF-MPI", "CAF-GASNet");
    for p in [2usize, 4] {
        let m = real_hpl(p, SubstrateKind::Mpi, 128, 16);
        let g = real_hpl(p, SubstrateKind::Gasnet, 128, 16);
        println!("{p:>10} {:>14.4} {:>14.4}", m.metric, g.metric);
    }

    println!("\n-- CGPOP (measured seconds; PUSH vs PULL) --");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "images", "MPI PUSH", "MPI PULL", "GASNet PUSH", "GASNet PULL"
    );
    for p in [4usize, 6] {
        let mp = real_cgpop(p, SubstrateKind::Mpi, ExchangeMode::Push, 32, 32, 60);
        let ml = real_cgpop(p, SubstrateKind::Mpi, ExchangeMode::Pull, 32, 32, 60);
        let gp = real_cgpop(p, SubstrateKind::Gasnet, ExchangeMode::Push, 32, 32, 60);
        let gl = real_cgpop(p, SubstrateKind::Gasnet, ExchangeMode::Pull, 32, 32, 60);
        println!(
            "{p:>10} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
            mp.metric, ml.metric, gp.metric, gl.metric
        );
    }
}
