//! What a bulk alltoall may allocate: bookkeeping per packet, never a
//! buffer per received block.
//!
//! `Image::alltoall_into` receives into the caller's buffer, so a block
//! is copied once from the packet that carried it. A counting global
//! allocator (per-thread counters: an image is a thread) pins that on
//! both substrates. CAF-GASNet carries a block as medium-AM fragments and
//! joins them in one reassembly buffer per (source, round), sized from
//! the fragment count when the first fragment arrives: no reallocation.

use caf::{CafConfig, CafUniverse, ExecConfig, SubstrateKind};
use caf_bench::heap::{allocs, reallocs, Counting};
use caf_fabric::DelayOp;

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: usize = 4;
/// 256 KiB of `u64` per block.
const BLOCK: usize = 32 << 10;
const CALLS: u64 = 4;

/// Element `i` of the blocks image `me` sends.
fn word(me: usize, i: usize) -> u64 {
    (me as u64) << 40 | i as u64
}

fn injected(img: &caf::Image) -> u64 {
    img.delay_meter_snapshot()
        .into_iter()
        .find_map(|(op, count, _)| (op == DelayOp::P2pInject).then_some(count))
        .expect("the meter has a row per op")
}

#[test]
fn alltoall_into_allocates_per_packet_not_per_block() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let mut cfg = CafConfig {
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            ..CafConfig::on(kind)
        };
        cfg.gasnet.segment_size = 64 << 10;
        let rows = CafUniverse::run_with_config(P, cfg, |img| {
            let (w, me) = (img.team_world(), img.this_image());
            let send: Vec<u64> = (0..P * BLOCK).map(|i| word(me, i)).collect();
            let mut recv = vec![0u64; P * BLOCK];
            // The first call grows what lives on: the fragment stash, the
            // mailboxes, the runtime's inbox.
            img.alltoall_into(&w, &send, BLOCK, &mut recv);
            let (a0, r0, i0) = (allocs(), reallocs(), injected(img));
            for _ in 0..CALLS {
                recv.fill(0);
                img.alltoall_into(&w, &send, BLOCK, &mut recv);
                let want = (0..P).flat_map(|s| (me * BLOCK..(me + 1) * BLOCK).map(move |i| word(s, i)));
                assert!(recv.iter().copied().eq(want), "{kind:?} image {me}: wrong blocks");
            }
            (allocs() - a0, reallocs() - r0, injected(img) - i0)
        });
        for (me, &(spent, grown, sent)) in rows.iter().enumerate() {
            let (spent, sent) = (spent / CALLS, sent / CALLS);
            // A buffer regrown per (source, round) would show P−1 times a
            // call; a queue reaching a new high-water mark, a few times a run.
            assert!(grown < CALLS, "{kind:?} image {me}: {grown} reallocations in {CALLS} calls");
            // One allocation per injected packet: its payload. CAF-GASNet
            // adds one per received fragment, the runtime's copy of a
            // medium payload GASNet lends its handler only until it
            // returns, one reassembly buffer per source and the one
            // buffer the call frames its fragments in. A receive buffer
            // per block would be P−1 more.
            let allowed = match kind {
                SubstrateKind::Mpi => sent,
                SubstrateKind::Gasnet => 2 * sent + P as u64,
            };
            assert!(
                spent <= allowed + 2,
                "{kind:?} image {me}: {spent} allocations for {sent} packets injected"
            );
        }
    }
}
