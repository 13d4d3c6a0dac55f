//! Property-based tests: every collective, on arbitrary communicator
//! sizes and payloads, matches its serial definition.

use caf_mpisim::Universe;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_equals_serial_fold(
        n in 1usize..7,
        per_rank in proptest::collection::vec(any::<i64>(), 7),
        len in 1usize..5,
    ) {
        let contributions: Vec<Vec<i64>> = (0..n)
            .map(|r| (0..len).map(|i| per_rank[r].wrapping_add(i as i64)).collect())
            .collect();
        let expect: Vec<i64> = (0..len)
            .map(|i| contributions.iter().fold(0i64, |a, c| a.wrapping_add(c[i])))
            .collect();
        let c2 = contributions.clone();
        let results = Universe::run(n, move |mpi| {
            let w = mpi.world();
            mpi.allreduce(&w, &c2[mpi.rank()], |a, b| a.wrapping_add(b)).unwrap()
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn alltoall_is_a_transpose(n in 1usize..7, block in 1usize..4, seed in any::<u64>()) {
        let results = Universe::run(n, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank() as u64;
            let send: Vec<u64> = (0..(n * block) as u64)
                .map(|i| seed ^ (me << 40) ^ i)
                .collect();
            mpi.alltoall(&w, &send, block).unwrap()
        });
        for (dst, recv) in results.iter().enumerate() {
            for src in 0..n {
                for b in 0..block {
                    let expect = seed ^ ((src as u64) << 40) ^ ((dst * block + b) as u64);
                    prop_assert_eq!(recv[src * block + b], expect);
                }
            }
        }
    }

    #[test]
    fn bcast_from_random_root(n in 1usize..7, root_sel in any::<u64>(), payload in proptest::collection::vec(any::<f64>(), 1..20)) {
        let root = (root_sel % n as u64) as usize;
        let p2 = payload.clone();
        let results = Universe::run(n, move |mpi| {
            let w = mpi.world();
            let mut data = if mpi.rank() == root { p2.clone() } else { Vec::new() };
            mpi.bcast(&w, root, &mut data).unwrap();
            data
        });
        for r in results {
            prop_assert_eq!(r.len(), payload.len());
            for (a, b) in r.iter().zip(&payload) {
                prop_assert!(a == b || (a.is_nan() && b.is_nan()));
            }
        }
    }

    #[test]
    fn comm_split_partitions_consistently(
        n in 2usize..7,
        colors in proptest::collection::vec(0u64..3, 7),
        keys in proptest::collection::vec(-10i64..10, 7),
    ) {
        let colors = colors[..n].to_vec();
        let keys = keys[..n].to_vec();
        let (c2, k2) = (colors.clone(), keys.clone());
        let results = Universe::run(n, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let sub = mpi.comm_split(&w, c2[me], k2[me]).unwrap();
            (sub.size(), sub.rank(), sub.members().to_vec())
        });
        for (me, (size, rank, members)) in results.into_iter().enumerate() {
            // Expected group: ranks with my color ordered by (key, rank).
            let mut group: Vec<usize> = (0..n).filter(|&r| colors[r] == colors[me]).collect();
            group.sort_by_key(|&r| (keys[r], r));
            prop_assert_eq!(size, group.len());
            prop_assert_eq!(&members, &group);
            prop_assert_eq!(group[rank], me);
        }
    }
}
