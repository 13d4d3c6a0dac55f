//! Miniature RandomAccess: run the paper's communication stress test on
//! both substrates at a few image counts and print GUP/s plus the per-
//! primitive time decomposition (the Figure-4 categories) measured by the
//! runtime's built-in stats.
//!
//! ```text
//! cargo run --release --example ra_mini [--agg]
//! ```
//!
//! With `--agg`, updates are coalesced through the `caf-agg` subsystem
//! (per-target buckets, hypercube routing, batched AM delivery) instead
//! of issued as individual async puts; the extra columns show how many
//! records rode how many batches (and forwarded hops) per run.
//!
//! Either way every run's table is checked against
//! `ra::serial_reference`: the example fails unless each image holds
//! exactly its block of the serially computed table.

use caf::{AggConfig, CafConfig, CafUniverse, StatCat, SubstrateKind};
use caf_bench::fusion_like;
use caf_hpcc::ra::{self, RaOpts};

/// Table words per image (2^10) and updates each image issues.
const LOG2_LOCAL: u32 = 10;
const UPDATES: usize = 20_000;

fn main() {
    let aggregated = std::env::args().any(|a| a == "--agg");
    println!(
        "{:>8} {:>12} {:>12} | {:>10} {:>10} {:>10} {:>10}{}",
        "images",
        "substrate",
        "GUP/s",
        "write(s)",
        "wait(s)",
        "notify(s)",
        "barrier(s)",
        if aggregated { " | records batches fwds" } else { "" }
    );
    for p in [2usize, 4, 8] {
        let expect = ra::serial_reference(p, 1 << LOG2_LOCAL, UPDATES);
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let cfg = if aggregated {
                // All three job sizes are powers of two, so hypercube
                // routing stays on (it is clamped off otherwise).
                CafConfig { agg: AggConfig::routed(), ..fusion_like(kind) }
            } else {
                fusion_like(kind)
            };
            let rows = CafUniverse::run_with_config(p, cfg, move |img| {
                let team = img.team_world();
                let opts = if aggregated {
                    RaOpts { aggregated: true, ..RaOpts::default() }
                } else {
                    RaOpts { async_puts: true, ..RaOpts::default() }
                };
                let out = ra::run_opts(img, &team, LOG2_LOCAL, UPDATES, opts);
                let agg = img.agg_stats();
                (
                    out.bench.metric,
                    img.stats().seconds(StatCat::CoarrayWrite),
                    img.stats().seconds(StatCat::EventWait),
                    img.stats().seconds(StatCat::EventNotify),
                    img.stats().seconds(StatCat::Barrier),
                    (agg.enqueued, agg.drained_buckets, agg.forwarded),
                    out.local_table,
                )
            });
            let table: Vec<u64> = rows.iter().flat_map(|r| r.6.iter().copied()).collect();
            assert!(table == expect, "P={p} {kind:?}: the table differs from the serial reference");
            let (gups, w, ew, en, ba, ..) = rows[0];
            let agg_cols = if aggregated {
                let (records, batches, fwds) = rows
                    .iter()
                    .fold((0, 0, 0), |(r, b, f), &(.., (ar, ab, af), _)| {
                        (r + ar, b + ab, f + af)
                    });
                format!(" | {records:>7} {batches:>7} {fwds:>4}")
            } else {
                String::new()
            };
            println!(
                "{:>8} {:>12} {:>12.5} | {:>10.4} {:>10.4} {:>10.4} {:>10.4}{}",
                p,
                match kind {
                    SubstrateKind::Mpi => "CAF-MPI",
                    SubstrateKind::Gasnet => "CAF-GASNet",
                },
                gups,
                w,
                ew,
                en,
                ba,
                agg_cols
            );
        }
    }
    println!("ra_mini OK");
}
