//! Property-based flush-mode parity: random put/notify/wait programs must
//! produce **byte-identical** results under `FlushMode::All` (the paper's
//! Θ(P) `MPI_Win_flush_all` baseline), `FlushMode::Targeted` (per-dirty-
//! target `MPI_Win_flush`), and `FlushMode::Rflush` (the §5 non-blocking
//! `MPI_WIN_RFLUSH` overlap), on both substrates. The flush policy is a
//! performance knob; any observable difference is a release-semantics bug.

use caf::{AsyncOpts, CafConfig, CafUniverse, Coarray, FlushMode, SubstrateKind};
use caf_bench::fast;
use proptest::prelude::*;

const P: usize = 4;
const SLOTS: usize = 8;

fn configs() -> Vec<CafConfig> {
    let mut v = Vec::new();
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        // GASNet ignores the MPI-only knob; running it under all three
        // modes anyway makes it a control group for the comparison.
        for flush in [FlushMode::All, FlushMode::Targeted, FlushMode::Rflush] {
            v.push(CafConfig {
                flush,
                ..fast(kind)
            });
        }
    }
    v
}

/// One image's view after the program: its local table plus an order-
/// insensitive echo hash (catches torn/partial writes that happen to
/// leave the right final table on some other image).
fn fingerprint(table: &[u64]) -> Vec<u64> {
    let mut out = table.to_vec();
    let hash = table
        .iter()
        .enumerate()
        .fold(0xcbf29ce484222325u64, |acc, (i, &v)| {
            (acc ^ v.wrapping_add(i as u64)).wrapping_mul(0x100000001b3)
        });
    out.push(hash);
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// Scatter phase: each image issues its async puts (deferred remote
    /// completion — the dirty-set path), then notifies every image it
    /// wrote to; each image waits for as many posts as it has writers,
    /// then reads. The notify release barrier is the only thing making
    /// the reads legal, so every flush mode is load-bearing here.
    #[test]
    fn random_put_notify_wait_programs_agree(
        writes in proptest::collection::vec(
            (0usize..P, 0usize..P, 0usize..SLOTS, any::<u64>()),
            1..24,
        )
    ) {
        // One writer per (target, slot) so the outcome is deterministic.
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = writes
            .into_iter()
            .filter(|&(_, t, s, _)| seen.insert((t, s)))
            .collect();

        let mut results: Vec<Vec<Vec<u64>>> = Vec::new();
        for cfg in configs() {
            let w = writes.clone();
            let out = CafUniverse::run_with_config(P, cfg, move |img| {
                let world = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&world, SLOTS);
                let ev = img.event_alloc(&world);
                let me = img.this_image();

                for &(writer, target, slot, value) in &w {
                    if me == writer && target != me {
                        // Released by the event_notify loop below: `targets` is
                        // non-empty exactly when this image put. lint:allow(sync-protocol)
                        img.copy_async_put(&ca, target, slot, &[value], AsyncOpts::none());
                    } else if me == writer {
                        ca.local_write(img, slot, &[value]);
                    }
                }
                // Notify each remote image this one wrote to (dedup'd),
                // releasing all of this image's outstanding puts.
                let mut targets: Vec<usize> = w
                    .iter()
                    .filter(|&&(wr, t, _, _)| wr == me && t != me)
                    .map(|&(_, t, _, _)| t)
                    .collect();
                targets.sort_unstable();
                targets.dedup();
                for &t in &targets {
                    img.event_notify(&world, &ev, t);
                }
                // Consume one post per distinct remote writer.
                let mut writers: Vec<usize> = w
                    .iter()
                    .filter(|&&(wr, t, _, _)| t == me && wr != me)
                    .map(|&(wr, _, _, _)| wr)
                    .collect();
                writers.sort_unstable();
                writers.dedup();
                for _ in 0..writers.len() {
                    img.event_wait(&ev);
                }
                let table = ca.local_vec(img);
                img.sync_all();
                img.coarray_free(&world, ca);
                fingerprint(&table)
            });
            results.push(out);
        }
        for r in &results[1..] {
            prop_assert_eq!(r, &results[0]);
        }
    }

    /// Ring rounds: repeated dirty/flush cycles on the same window. Each
    /// round every image async-puts to its right neighbour, notifies it,
    /// waits for its left neighbour, and folds what it received into the
    /// next round's value — so a single missed flush corrupts everything
    /// downstream.
    #[test]
    fn chained_rounds_agree(seeds in proptest::collection::vec(any::<u64>(), 1..6)) {
        let mut results: Vec<Vec<Vec<u64>>> = Vec::new();
        for cfg in configs() {
            let s = seeds.clone();
            let out = CafUniverse::run_with_config(P, cfg, move |img| {
                let world = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&world, s.len());
                let ev = img.event_alloc(&world);
                let me = img.this_image();
                let right = (me + 1) % P;
                let mut carry = me as u64;
                for (round, &seed) in s.iter().enumerate() {
                    let v = carry ^ seed.rotate_left(round as u32);
                    img.copy_async_put(&ca, right, round, &[v], AsyncOpts::none());
                    img.event_notify(&world, &ev, right);
                    img.event_wait(&ev);
                    let mut got = [0u64];
                    ca.local_read(img, round, &mut got);
                    carry = carry.wrapping_mul(31).wrapping_add(got[0]);
                }
                let table = ca.local_vec(img);
                img.sync_all();
                img.coarray_free(&world, ca);
                let mut fp = fingerprint(&table);
                fp.push(carry);
                fp
            });
            results.push(out);
        }
        for r in &results[1..] {
            prop_assert_eq!(r, &results[0]);
        }
    }
}
