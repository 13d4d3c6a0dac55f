//! The heap an image holds on entering its body — what a launch really
//! costs, beside the Figure-1 bytes `MemAccount` accounts for without
//! allocating. Both substrates' `init` once zero-filled those accounted
//! bytes as well (1 MiB + 16 KiB per peer on MPI, 256 KiB + 1–4 KiB per
//! peer on GASNet: 5 MiB an image at P=256, 1.25 GiB a job) and nothing
//! ever read them; a counting global allocator keeps that ballast, or
//! anything else that grows with P², from coming back.
//!
//! Measured (this file's own numbers, debug and release alike; mean over
//! the job, GASNet segment excluded — see `caf_bench::Footprint::heap`),
//! under `Tasks` on one run slot:
//!
//! | configuration | P=16    | P=256    | per peer |
//! |---------------|---------|----------|----------|
//! | MPI-only      | 1 463 B | 13 030 B |  48 B    |
//! | GASNet-only   | 4 096 B | 19 977 B |  66 B    |
//! | hybrid        | 4 420 B | 22 210 B |  74 B    |
//!
//! The per-peer bytes are tables with one entry per rank: the
//! aggregator's buckets, the world team's member list and, on GASNet,
//! the peer-segment table. GASNet-only held 136 B a peer while its attach
//! sent every peer a packet: each mailbox grew to hold P−1 of them, and
//! each image kept a table of the peers' segment ids. The assertion
//! allows twice the measurement.

use caf::{CafConfig, CafUniverse, Coarray, ExecConfig, SubstrateKind};
use caf_bench::heap::{self, Counting};
use caf_bench::{fig1_configs, launch_footprint};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Small on purpose: 256 default segments would be 1 GiB of user memory
/// around a measurement of kilobytes. Reported apart from the heap.
const SEGMENT: usize = 64 << 10;

/// `(name, heap bytes per image at P=16, at P=256)` in `fig1_configs` order.
const MEASURED: [(&str, i64, i64); 3] = [
    ("GASNet-only", 4_096, 19_977),
    ("MPI-only", 1_463, 13_030),
    ("hybrid", 4_420, 22_210),
];

#[test]
#[cfg_attr(miri, ignore = "launches 256-image jobs")]
fn an_image_enters_its_body_holding_kilobytes_not_megabytes() {
    for (cfg, (name, at16, at256)) in fig1_configs().into_iter().zip(MEASURED) {
        let mut cfg = CafConfig {
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            ..cfg
        };
        cfg.gasnet.segment_size = SEGMENT;
        let small = launch_footprint(16, cfg);
        let large = launch_footprint(256, cfg);
        let slope = (large.heap - small.heap) / 240;
        println!(
            "{name}: heap {} B at P=16, {} B at P=256 ({slope} B per peer), segment {} B, accounted {} B",
            small.heap, large.heap, large.segment, large.accounted
        );
        for (p, got, measured) in [(16, small.heap, at16), (256, large.heap, at256)] {
            assert!(got > 0, "{name} P={p}: the counting allocator is not installed");
            assert!(got <= 2 * measured, "{name} P={p}: {got} B held, measured {measured} B");
        }
        let measured = (at256 - at16) / 240;
        assert!(slope <= 2 * measured, "{name}: {slope} B per peer, measured {measured} B");
        // The accounted bytes are the ballast's size: the heap must stay
        // far below them, not track them.
        assert!(large.heap < large.accounted as i64 / 8, "{name}: heap tracks the accounted bytes");
    }
}

/// A window remembers the peer segments it has resolved (16 B a peer) and
/// must let go of them, and of the table, when it is freed: one handle
/// left behind keeps a peer's whole part alive. Summed over the job — a
/// part is on its owner's books and comes off those of whichever image
/// dropped the last handle — and held against one part, not against zero:
/// the second round still grows queues and tables to their high-water
/// capacity. Measured job-wide, a round holds 13 248 B more on CAF-MPI
/// and 13 344 B more on CAF-GASNet than the first; the growth levels off
/// after round 64 on both.
#[test]
#[cfg_attr(miri, ignore = "launches 256-image jobs")]
fn a_freed_coarray_gives_its_heap_back_at_p256() {
    const PART: usize = 32 << 10;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let mut cfg = CafConfig {
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            ..CafConfig::on(kind)
        };
        cfg.gasnet.segment_size = SEGMENT;
        let held = CafUniverse::run_with_config(256, cfg, |img| {
            let w = img.team_world();
            let (me, p) = (img.this_image(), img.num_images());
            let round = || {
                let ca: Coarray<u64> = img.coarray_alloc(&w, PART / 8);
                for peer in [(me + 1) % p, (me + p / 2) % p] {
                    ca.write(img, peer, me, &[me as u64]);
                }
                img.sync_all();
                img.coarray_free(&w, ca);
                img.sync_all();
            };
            round();
            let before = heap::live_bytes();
            round();
            heap::live_bytes() - before
        });
        let held: i64 = held.iter().sum();
        println!("{kind:?}: {held} B held job-wide after 256 parts of {PART} B were freed");
        assert!(held.abs() < PART as i64, "{kind:?}: {held} B still held after coarray_free");
    }
}
