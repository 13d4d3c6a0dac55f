//! Property-based substrate parity: CAF programs must compute identical
//! results on the CAF-MPI and CAF-GASNet substrates — the runtimes differ
//! in mechanism, never in semantics.

use caf::{CafUniverse, Coarray, SubstrateKind};
use caf_bench::fast;
use proptest::prelude::*;

/// Run one program on both substrates and return both results.
fn on_both<T, F>(n: usize, f: F) -> (Vec<T>, Vec<T>)
where
    T: Send,
    F: Fn(&caf::Image) -> T + Send + Sync,
{
    let a = CafUniverse::run_with_config(n, fast(SubstrateKind::Mpi), &f);
    let b = CafUniverse::run_with_config(n, fast(SubstrateKind::Gasnet), &f);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Random scatter of writes: `writes[k] = (writer, target, slot, value)`.
    /// Final table state must be identical across substrates.
    #[test]
    fn random_coarray_writes_agree(
        writes in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..8, any::<u64>()),
            1..24,
        )
    ) {
        // Make each (target, slot) written by at most one writer, so the
        // outcome is deterministic (MPI leaves overlapping unordered
        // writes undefined).
        let mut seen = std::collections::HashSet::new();
        let writes: Vec<_> = writes
            .into_iter()
            .filter(|&(_, t, s, _)| seen.insert((t, s)))
            .collect();
        let w2 = writes.clone();

        let run = move |img: &caf::Image, writes: &[(usize, usize, usize, u64)]| {
            let world = img.team_world();
            let ca: Coarray<u64> = img.coarray_alloc(&world, 8);
            for &(writer, target, slot, value) in writes {
                if img.this_image() == writer {
                    ca.write(img, target, slot, &[value]);
                }
            }
            img.sync_all();
            let v = ca.local_vec(img);
            img.coarray_free(&world, ca);
            v
        };
        let a = CafUniverse::run_with_config(4, fast(SubstrateKind::Mpi),
            move |img| run(img, &writes));
        let b = CafUniverse::run_with_config(4, fast(SubstrateKind::Gasnet),
            move |img| run(img, &w2));
        prop_assert_eq!(a, b);
    }

    /// Reductions over arbitrary data agree across substrates (and equal
    /// the serial reduction).
    #[test]
    fn reductions_agree(values in proptest::collection::vec(any::<i64>(), 6)) {
        let v = values.clone();
        let (a, b) = on_both(6, move |img| {
            let world = img.team_world();
            img.allreduce(&world, &[v[img.this_image()]], |x, y| x.wrapping_add(y))[0]
        });
        let expect: i64 = values.iter().fold(0i64, |acc, &x| acc.wrapping_add(x));
        prop_assert!(a.iter().all(|&x| x == expect));
        prop_assert_eq!(a, b);
    }

    /// Alltoall of arbitrary blocks, empty ones included, agrees across
    /// substrates, and receiving into a caller's buffer agrees with
    /// receiving into a new vector.
    #[test]
    fn alltoall_agrees(seed in any::<u64>(), block in 0usize..6) {
        let (a, b) = on_both(4, move |img| {
            let world = img.team_world();
            let me = img.this_image() as u64;
            let send: Vec<u64> = (0..4 * block as u64)
                .map(|i| seed ^ (me << 32) ^ i)
                .collect();
            let mut into = vec![!seed; send.len()];
            img.alltoall_into(&world, &send, block, &mut into);
            let fresh = img.alltoall(&world, &send, block);
            assert_eq!(into, fresh, "image {me}");
            fresh
        });
        prop_assert_eq!(a, b);
    }

    /// Team splits produce the same memberships and sub-team reductions.
    #[test]
    fn team_split_agrees(colors in proptest::collection::vec(0u64..3, 6)) {
        let c = colors.clone();
        let (a, b) = on_both(6, move |img| {
            let world = img.team_world();
            let color = c[img.this_image()];
            let sub = img.team_split(&world, color, img.this_image() as i64);
            let sum = img.allreduce(&sub, &[img.this_image() as u64], |x, y| x + y)[0];
            (sub.rank(), sub.size(), sum)
        });
        prop_assert_eq!(a, b);
    }

    /// RandomAccess at arbitrary small sizes agrees with the serial
    /// reference on both substrates.
    #[test]
    fn randomaccess_parity(log2_local in 4u32..7, updates in 1usize..400) {
        let expect = caf_hpcc::ra::serial_reference(4, 1 << log2_local, updates);
        for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
            let locals = CafUniverse::run_with_config(4, fast(kind), move |img| {
                let team = img.team_world();
                caf_hpcc::ra::run(img, &team, log2_local, updates).local_table
            });
            let got: Vec<u64> = locals.into_iter().flatten().collect();
            prop_assert_eq!(&got, &expect);
        }
    }
}
