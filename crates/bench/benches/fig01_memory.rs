//! Figure 1 bench: runtime initialization cost and mapped-memory
//! footprint of GASNet-only / MPI-only / duplicate-runtimes jobs.
//!
//! Criterion times the full init+teardown; the accounted byte footprints
//! (the actual Figure-1 quantity) are printed once per configuration.

use std::time::Duration;

use caf::{CafConfig, CafUniverse, SubstrateKind};
use caf_bench::real_memory;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_init(c: &mut Criterion) {
    for p in [4usize, 8] {
        let (g, m, d) = real_memory(p);
        eprintln!(
            "fig01 footprints at P={p}: GASNet-only {g} B, MPI-only {m} B, duplicate {d} B"
        );
    }

    let mut group = c.benchmark_group("fig01_memory_init");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for p in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("gasnet_only", p), &p, |b, &p| {
            b.iter(|| {
                CafUniverse::run_with_config(p, CafConfig::on(SubstrateKind::Gasnet), |img| {
                    img.runtime_memory_overhead()
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("mpi_only", p), &p, |b, &p| {
            b.iter(|| CafUniverse::run(p, |img| img.runtime_memory_overhead()))
        });
        group.bench_with_input(BenchmarkId::new("duplicate", p), &p, |b, &p| {
            b.iter(|| {
                CafUniverse::run_with_config(
                    p,
                    CafConfig {
                        hybrid_mpi: true,
                        ..CafConfig::on(SubstrateKind::Gasnet)
                    },
                    |img| img.runtime_memory_overhead(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_init);
criterion_main!(benches);
