//! What a bulk alltoall may allocate: bookkeeping per packet, never a
//! buffer per received block — and on CAF-MPI, no payload bytes at all
//! when the send slab is lent.
//!
//! `Image::alltoall_into` receives into the caller's buffer, so a block
//! is copied once from the packet that carried it. A counting global
//! allocator (per-thread counters: an image is a thread) pins that on
//! both substrates. CAF-GASNet carries a block as medium-AM fragments and
//! joins them in one reassembly buffer per (source, round), sized from
//! the fragment count when the first fragment arrives: no reallocation.
//! CAF-MPI's packets are slices of one frozen send slab: `alltoall_lend`
//! allocates bookkeeping only, and `alltoall_into` the one copy of its
//! send buffer that it lends.

use caf::{CafConfig, CafUniverse, ExecConfig, SubstrateKind};
use caf_bench::heap::{allocated_bytes, allocs, reallocs, Counting};
use caf_fabric::DelayOp;

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: usize = 4;
/// 256 KiB of `u64` per block.
const BLOCK: usize = 32 << 10;
const CALLS: u64 = 4;
/// What a CAF-MPI alltoall allocates besides the slab it lends: the
/// slab's shared handle and the `Bytes` that owns it.
const LEND: u64 = 2;
/// Bytes of those two, bounded: an `Arc` header and a `Vec` each.
const LEND_BYTES: u64 = 128;

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
            // CAF-MPI: the copy of the send buffer it lends, the lent
            // slab's shared handle and the one `Bytes` every packet is a
            // slice of — none per packet. CAF-GASNet: one per injected
            // fragment (the buffer it is framed in, which its packet
            // owns), one per received fragment (the runtime's copy of a
            // medium payload GASNet lends its handler only until it
            // returns) and one reassembly buffer per source. A receive
            // buffer per block would be P−1 more.
            let allowed = match kind {
                SubstrateKind::Mpi => 1 + LEND,
                SubstrateKind::Gasnet => 2 * sent + P as u64 - 1,
            };
            assert!(
                spent <= allowed + 2,
                "{kind:?} image {me}: {spent} allocations for {sent} packets injected"
            );
        }
    }
}

/// ROADMAP item 4's second half, on CAF-MPI: an alltoall of B bytes
/// copies no payload into a packet. Lent, it allocates bookkeeping
/// only — O(1) per call, at most [`LEND_BYTES`] — however large B; in
/// its copying form, the B-byte copy of the send buffer it lends, not
/// 2B (that copy and a second one into the packets).
#[test]
fn a_lent_alltoall_allocates_no_payload_bytes_on_caf_mpi() {
    let cfg = CafConfig {
        exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
        ..CafConfig::on(SubstrateKind::Mpi)
    };
    let b = (P * BLOCK * std::mem::size_of::<u64>()) as u64;
    let rows = CafUniverse::run_with_config(P, cfg, |img| {
        let (w, me) = (img.team_world(), img.this_image());
        let mut slab: Vec<u64> = (0..P * BLOCK).map(|i| word(me, i)).collect();
        let mut recv = vec![0u64; P * BLOCK];
        let check = |s: usize, got: &[u64]| {
            let want = (me * BLOCK..(me + 1) * BLOCK).map(|i| word(s, i));
            assert!(got.iter().copied().eq(want), "image {me}: wrong block from {s}");
        };
        // Warm the mailboxes up, as above.
        slab = img.alltoall_lend(&w, slab, BLOCK, check);
        img.alltoall_into(&w, &slab, BLOCK, &mut recv);
        let (a0, b0) = (allocs(), allocated_bytes());
        for _ in 0..CALLS {
            slab = img.alltoall_lend(&w, slab, BLOCK, check);
        }
        let lent = ((allocs() - a0) / CALLS, (allocated_bytes() - b0) / CALLS);
        let (a0, b0) = (allocs(), allocated_bytes());
        for _ in 0..CALLS {
            img.alltoall_into(&w, &slab, BLOCK, &mut recv);
        }
        let copied = ((allocs() - a0) / CALLS, (allocated_bytes() - b0) / CALLS);
        (lent, copied)
    });
    for (me, &((lent, lent_bytes), (copied, copied_bytes))) in rows.iter().enumerate() {
        assert!(
            lent <= LEND && lent_bytes <= LEND_BYTES,
            "image {me}: a lent alltoall of {b} bytes allocated {lent} buffers, {lent_bytes} bytes"
        );
        assert!(
            copied <= LEND + 1 && (b..=b + LEND_BYTES).contains(&copied_bytes),
            "image {me}: a copying alltoall of {b} bytes allocated {copied} buffers, \
             {copied_bytes} bytes"
        );
    }
}
