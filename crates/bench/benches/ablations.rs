//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. `notify_flush`: `event_notify` with the paper's Θ(P)
//!    `MPI_Win_flush_all` (`FlushMode::All`) vs. the §5 improvement
//!    direction (`FlushMode::Targeted`: only dirty targets are flushed);
//! 2. `event_impl`: the paper's ISEND/RECV event implementation vs. the
//!    §3.4 alternative built on `MPI_FETCH_AND_OP` polling;
//! 3. `put_dst_event`: copy_async with a destination event — the §3.3
//!    case-4 AM data path — vs. a blocking write + notify under
//!    `FlushMode::Targeted`;
//! 4. `finish_impl`: full termination-detection `finish` vs. the
//!    flush_all+barrier fast path, with no shipping in the block.

use std::time::{Duration, Instant};

use caf::{AsyncOpts, CafConfig, Coarray, FlushMode, SubstrateKind};
use caf_bench::{fusion_like, timed_on_rank0};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_notify_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_notify_flush");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Several windows allocated → flush_all walks all of them × P ranks.
    for flush in [FlushMode::All, FlushMode::Targeted] {
        let cfg = CafConfig {
            flush,
            ..fusion_like(SubstrateKind::Mpi)
        };
        group.bench_function(BenchmarkId::new(flush.name(), 8), |b| {
            b.iter_custom(|iters| {
                timed_on_rank0(8, cfg, |img| {
                    let w = img.team_world();
                    let cas: Vec<Coarray<u64>> =
                        (0..4).map(|_| img.coarray_alloc(&w, 16)).collect();
                    let ev = img.event_alloc(&w);
                    img.sync_all();
                    let d = if img.this_image() == 0 {
                        let t = Instant::now();
                        for _ in 0..iters {
                            cas[0].write(img, 1, 0, &[1u64]);
                            img.event_notify(&w, &ev, 1);
                        }
                        t.elapsed()
                    } else {
                        if img.this_image() == 1 {
                            for _ in 0..iters {
                                img.event_wait(&ev);
                            }
                        }
                        Duration::ZERO
                    };
                    img.sync_all();
                    for ca in cas {
                        img.coarray_free(&w, ca);
                    }
                    d
                })
            })
        });
    }
    group.finish();
}

fn bench_event_impl(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_event_impl");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // The paper's chosen design: ISEND-based notify, blocking-recv wait.
    group.bench_function("isend_recv", |b| {
        b.iter_custom(|iters| {
            timed_on_rank0(2, fusion_like(SubstrateKind::Mpi), |img| {
                let w = img.team_world();
                let ping = img.event_alloc(&w);
                let pong = img.event_alloc(&w);
                img.sync_all();
                let d = if img.this_image() == 0 {
                    let t = Instant::now();
                    for _ in 0..iters {
                        img.event_notify(&w, &ping, 1);
                        img.event_wait(&pong);
                    }
                    t.elapsed()
                } else {
                    for _ in 0..iters {
                        img.event_wait(&ping);
                        img.event_notify(&w, &pong, 0);
                    }
                    Duration::ZERO
                };
                img.sync_all();
                d
            })
        })
    });

    // The §3.4 alternative: FETCH_AND_OP to post, polling reads to wait.
    group.bench_function("fetch_and_op_poll", |b| {
        b.iter_custom(|iters| {
            timed_on_rank0(2, fusion_like(SubstrateKind::Mpi), |img| {
                let w = img.team_world();
                let counters: Coarray<u64> = img.coarray_alloc(&w, 2); // [ping, pong]
                img.sync_all();
                let me = img.this_image();
                let wait_slot = |img: &caf::Image, slot: usize, round: u64| {
                    let mut out = [0u64];
                    loop {
                        counters.local_read(img, slot, &mut out);
                        if out[0] > round {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                };
                let d = if me == 0 {
                    let t = Instant::now();
                    for round in 0..iters {
                        counters.fetch_add(img, 1, 0, 1u64);
                        wait_slot(img, 1, round);
                    }
                    t.elapsed()
                } else {
                    for round in 0..iters {
                        wait_slot(img, 0, round);
                        counters.fetch_add(img, 0, 1, 1u64);
                    }
                    Duration::ZERO
                };
                img.sync_all();
                img.coarray_free(&w, counters);
                d
            })
        })
    });
    group.finish();
}

fn bench_put_dst_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_put_dst_event");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for payload in [64usize, 2048] {
        // Case 4: the AM data path (MPI cannot observe remote completion
        // of a PUT).
        group.bench_function(BenchmarkId::new("am_path", payload), |b| {
            b.iter_custom(|iters| {
                timed_on_rank0(2, fusion_like(SubstrateKind::Mpi), move |img| {
                    let w = img.team_world();
                    let ca: Coarray<u64> = img.coarray_alloc(&w, payload);
                    let ev = img.event_alloc(&w);
                    let data = vec![5u64; payload];
                    img.sync_all();
                    let d = if img.this_image() == 0 {
                        let t = Instant::now();
                        for _ in 0..iters {
                            img.copy_async_put(&ca, 1, 0, &data, AsyncOpts::with_dst(ev));
                        }
                        t.elapsed()
                    } else {
                        for _ in 0..iters {
                            img.event_wait(&ev);
                        }
                        Duration::ZERO
                    };
                    img.sync_all();
                    img.coarray_free(&w, ca);
                    d
                })
            })
        });

        // The direct alternative: blocking put (+flush) then notify; the
        // write already completed its target, so the notify flushes nothing.
        let targeted = CafConfig {
            flush: FlushMode::Targeted,
            ..fusion_like(SubstrateKind::Mpi)
        };
        group.bench_function(BenchmarkId::new("put_flush_notify", payload), |b| {
            b.iter_custom(|iters| {
                timed_on_rank0(2, targeted, move |img| {
                    let w = img.team_world();
                    let ca: Coarray<u64> = img.coarray_alloc(&w, payload);
                    let ev = img.event_alloc(&w);
                    let data = vec![5u64; payload];
                    img.sync_all();
                    let d = if img.this_image() == 0 {
                        let t = Instant::now();
                        for _ in 0..iters {
                            ca.write(img, 1, 0, &data);
                            img.event_notify(&w, &ev, 1);
                        }
                        t.elapsed()
                    } else {
                        for _ in 0..iters {
                            img.event_wait(&ev);
                        }
                        Duration::ZERO
                    };
                    img.sync_all();
                    img.coarray_free(&w, ca);
                    d
                })
            })
        });
    }
    group.finish();
}

fn bench_finish_impl(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_finish_impl");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("termination_detection", |b| {
        b.iter_custom(|iters| {
            timed_on_rank0(4, fusion_like(SubstrateKind::Mpi), |img| {
                let w = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
                img.sync_all();
                let t = Instant::now();
                for _ in 0..iters {
                    img.finish(&w, |img| {
                        let peer = (img.this_image() + 1) % 4;
                        img.copy_async_put(&ca, peer, 0, &[1u64], AsyncOpts::none());
                    });
                }
                let d = t.elapsed();
                img.sync_all();
                img.coarray_free(&w, ca);
                if img.this_image() == 0 {
                    d
                } else {
                    Duration::ZERO
                }
            })
        })
    });

    group.bench_function("fast_flush_barrier", |b| {
        b.iter_custom(|iters| {
            timed_on_rank0(4, fusion_like(SubstrateKind::Mpi), |img| {
                let w = img.team_world();
                let ca: Coarray<u64> = img.coarray_alloc(&w, 4);
                img.sync_all();
                let t = Instant::now();
                for _ in 0..iters {
                    img.finish_fast(&w, |img| {
                        let peer = (img.this_image() + 1) % 4;
                        img.copy_async_put(&ca, peer, 0, &[1u64], AsyncOpts::none());
                    });
                }
                let d = t.elapsed();
                img.sync_all();
                img.coarray_free(&w, ca);
                if img.this_image() == 0 {
                    d
                } else {
                    Duration::ZERO
                }
            })
        })
    });
    group.finish();
}

fn bench_alltoall_algorithm(c: &mut Criterion) {
    // What does MPI_ALLTOALL's tuning buy? Pairwise exchange vs the naive
    // linear exchange, same library, same transport (paper §4.2/§5).
    let mut group = c.benchmark_group("ablation_alltoall_algorithm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (name, tuned) in [("pairwise_tuned", true), ("linear_naive", false)] {
        group.bench_function(BenchmarkId::new(name, 8), |b| {
            b.iter_custom(|iters| {
                timed_on_rank0(8, fusion_like(SubstrateKind::Mpi), move |img| {
                    let mpi = img.mpi().expect("MPI substrate");
                    let comm = mpi.world();
                    let send: Vec<u64> = (0..8 * 256).map(|i| i as u64).collect();
                    img.sync_all();
                    let t = Instant::now();
                    for _ in 0..iters {
                        if tuned {
                            let _ = mpi.alltoall(&comm, &send, 256).unwrap();
                        } else {
                            let _ = mpi.alltoall_linear(&comm, &send, 256).unwrap();
                        }
                    }
                    let d = t.elapsed();
                    img.sync_all();
                    if img.this_image() == 0 {
                        d
                    } else {
                        Duration::ZERO
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_notify_flush,
    bench_event_impl,
    bench_put_dst_event,
    bench_finish_impl,
    bench_alltoall_algorithm
);
criterion_main!(benches);
