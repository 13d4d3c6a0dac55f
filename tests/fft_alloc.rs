//! What a distributed FFT may allocate: its three alltoalls' bookkeeping,
//! two slabs, and its tables — no third slab, no copy for the inverse,
//! and on CAF-MPI no packet buffer: the send slab is lent.
//!
//! `caf_hpcc::fft::distributed_fft` moves its data through two slabs that
//! swap roles at every transpose, and computes from one plan (the row
//! twiddles) and two step-3 twiddle tables, all built once per call. The
//! inverse runs the same passes with conjugated twiddles and scales its
//! result in place. A counting global allocator (per-thread counters: an
//! image is a thread) pins that on both substrates; the images run as
//! tasks on one run slot, so every run takes the same schedule.

use caf::{CafConfig, CafUniverse, ExecConfig, Image, SubstrateKind};
use caf_bench::heap::{allocs, reallocs, Counting};
use caf_fabric::DelayOp;
use caf_hpcc::complex::C64;
use caf_hpcc::fft::{distributed_fft, input_element, serial_fft};

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: usize = 2;
const LOG2: u32 = 16;
/// The transposes of one transform.
const ALLTOALLS: u64 = 3;
/// The two slabs, the plan's table and the two step-3 twiddle tables.
const OWN: u64 = 2 + 1 + 2;
/// What a CAF-MPI alltoall allocates to lend its slab, whatever the
/// number of packets: the slab's shared handle and the `Bytes` that
/// owns it.
const LEND: u64 = 2;

fn injected(img: &Image) -> u64 {
    img.delay_meter_snapshot()
        .into_iter()
        .find_map(|(op, count, _)| (op == DelayOp::P2pInject).then_some(count))
        .expect("the meter has a row per op")
}

#[test]
fn a_transform_allocates_two_slabs_and_its_tables() {
    let m = 1usize << LOG2;
    let mut want: Vec<C64> = (0..m).map(input_element).collect();
    serial_fft(&mut want, false);
    let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let cfg = CafConfig {
            exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
            ..CafConfig::on(kind)
        };
        let rows = CafUniverse::run_with_config(P, cfg, |img| {
            let (w, me) = (img.team_world(), img.this_image());
            let n = m / P;
            let local: Vec<C64> = (0..n).map(|i| input_element(me * n + i)).collect();
            // The first call grows what lives on: the mailboxes, the
            // runtime's inbox, CAF-GASNet's fragment stash.
            let warm = distributed_fft(img, &w, &local, false);
            let mut counts = Vec::new();
            for inverse in [false, true] {
                let input = if inverse { &warm } else { &local };
                // The meter's snapshot is a Vec: read it outside the count.
                let i0 = injected(img);
                let (a0, r0) = (allocs(), reallocs());
                let out = distributed_fft(img, &w, input, inverse);
                let (spent, grown) = (allocs() - a0, reallocs() - r0);
                counts.push((spent, grown, injected(img) - i0));
                let (expect, tol) = if inverse {
                    (&local[..], 1e-12)
                } else {
                    (&want[me * n..(me + 1) * n], 1e-12 * scale)
                };
                for (k, (got, exp)) in out.iter().zip(expect).enumerate() {
                    assert!(
                        (*got - *exp).abs() <= tol,
                        "{kind:?} image {me}, inverse {inverse}: point {k} is {got:?}, want {exp:?}"
                    );
                }
            }
            counts
        });
        for (me, counts) in rows.iter().enumerate() {
            for (inverse, &(spent, grown, sent)) in [false, true].iter().zip(counts) {
                assert_eq!(grown, 0, "{kind:?} image {me}, inverse {inverse}: a buffer was regrown");
                // As `tests/alltoall_alloc.rs` allows an alltoall: on
                // CAF-MPI, whose packets are slices of the lent slab,
                // `LEND` per alltoall and none per packet; on CAF-GASNet
                // two per fragment, plus a reassembly buffer per source.
                let exchange = match kind {
                    SubstrateKind::Mpi => ALLTOALLS * LEND,
                    SubstrateKind::Gasnet => 2 * sent + ALLTOALLS * (P as u64 - 1),
                };
                assert!(
                    spent <= exchange + OWN,
                    "{kind:?} image {me}, inverse {inverse}: {spent} allocations, \
                     {exchange} for the exchanges and {OWN} of its own allowed"
                );
            }
        }
    }
}
