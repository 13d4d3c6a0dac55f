//! What the allocation-free aggregation path must and must not do.
//!
//! * **No per-record allocation.** The bucket a record is enqueued into
//!   is the wire buffer, and the target walks received bytes in place, so
//!   heap traffic is a function of *batches*. A counting global allocator
//!   (per-thread counters: an image is a thread) pins that on both the
//!   origin and the target, on both substrates.
//! * **Same trace.** With a `caf-trace` session armed the fast paths fall
//!   back to their instrumented twins: a traced aggregated run still shows
//!   one `AggEnqueue` per remote record, one `AggDrain` per batch,
//!   `AggForward` on routed hops, and a `SegmentGet` + `SegmentPut` pair
//!   per applied accumulate — what `figures trace` builds its aggregation
//!   column from.

use caf::{AggConfig, CafConfig, CafUniverse, Coarray, SubstrateKind};
use caf_bench::heap::{allocs, Counting};
use caf_trace::{Op, Session, TraceConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

const RECORDS: usize = 64 * 1024;
const TABLE_WORDS: usize = 1 << 12;

#[test]
fn accumulates_allocate_per_batch_not_per_record() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let cfg = CafConfig {
            agg: AggConfig::on(),
            ..CafConfig::on(kind)
        };
        let rows = CafUniverse::run_with_config(2, cfg, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, TABLE_WORDS);
            img.sync_all();
            // Image 0 is the origin of every record, image 1 the target:
            // each thread's count is one side of the path.
            let before = allocs();
            img.finish(&w, |img| {
                if img.this_image() == 0 {
                    for i in 0..RECORDS {
                        img.agg_accumulate_xor(&ca, 1, i % TABLE_WORDS, i as u64 + 1);
                    }
                }
            });
            let spent = allocs() - before;
            let batches = img.agg_stats().drained_buckets;
            let table = ca.local_vec(img);
            img.coarray_free(&w, ca);
            (spent, batches, table)
        });
        let batches = (RECORDS / AggConfig::on().bucket_records) as u64;
        assert_eq!(
            rows[0].1, batches,
            "{kind:?}: every bucket fills to its count trigger"
        );
        // Delivered, and exactly once: word j collects the XOR of i+1 over
        // all i ≡ j (mod TABLE_WORDS).
        let mut want = vec![0u64; TABLE_WORDS];
        for i in 0..RECORDS {
            want[i % TABLE_WORDS] ^= i as u64 + 1;
        }
        assert_eq!(rows[1].2, want, "{kind:?}");
        for (side, (spent, _, _)) in ["origin", "target"].iter().zip(&rows) {
            // Measured: one or two allocations per batch on its way through
            // the substrate (packet payload, receive buffer) plus a few
            // dozen for `finish` itself; the owned-record path cost two
            // per *record* on each side.
            assert!(
                *spent <= 4 * batches + 256,
                "{kind:?} {side}: {spent} allocations for {batches} batches of {RECORDS} records"
            );
        }
    }
}

#[test]
fn traced_run_keeps_its_aggregation_and_segment_instants() {
    const P: usize = 4;
    const PER_PEER: usize = 100;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let session =
            Session::start(TraceConfig::default()).expect("no other session on this thread");
        let cfg = CafConfig {
            agg: AggConfig::routed(),
            ..CafConfig::on(kind)
        };
        let stats = CafUniverse::run_with_config(P, cfg, |img| {
            let w = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&w, P);
            img.finish(&w, |img| {
                for dest in 0..P {
                    for k in 0..PER_PEER {
                        // Includes dest == me: the owner-local fast path.
                        img.agg_accumulate_add(&ca, dest, img.this_image(), k as u64);
                    }
                }
            });
            let sum: u64 = (0..PER_PEER as u64).sum();
            assert_eq!(ca.local_vec(img), vec![sum; P], "{kind:?}");
            img.coarray_free(&w, ca);
            img.agg_stats()
        });
        let trace = session.finish();
        let count = |op: Op| trace.events.iter().filter(|e| e.op == op).count() as u64;
        let forwarded: u64 = stats.iter().map(|s| s.forwarded).sum();
        let app_records = (P * (P - 1) * PER_PEER) as u64;
        assert!(
            forwarded > 0,
            "{kind:?}: P=4 routes 0<->3 and 1<->2 through a hop"
        );
        assert_eq!(count(Op::AggEnqueue), app_records, "{kind:?}");
        assert_eq!(count(Op::AggForward), forwarded, "{kind:?}");
        assert_eq!(
            count(Op::AggDrain),
            stats.iter().map(|s| s.drained_buckets).sum::<u64>(),
            "{kind:?}"
        );
        // Every accumulate, remote or owner-local, is applied exactly once
        // through the segment's traced get + put pair.
        let applied = (P * P * PER_PEER) as u64;
        assert!(
            count(Op::SegmentGet) >= applied,
            "{kind:?}: {} gets",
            count(Op::SegmentGet)
        );
        assert!(
            count(Op::SegmentPut) >= applied,
            "{kind:?}: {} puts",
            count(Op::SegmentPut)
        );
    }
}
