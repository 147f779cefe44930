//! Micro-benchmarks of the substrate kernels: the inner product the whole
//! paper's cost model is denominated in ("if an inner product computation
//! takes about 100 ns on average …", Sec. 1), plus the bucket-index scan
//! primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_core::index::{build_both, ColumnIndex, RowIndex};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::{kernels, simd};
use std::hint::black_box;

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/dot");
    for dim in [10usize, 50, 100, 500] {
        let a: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bencher, _| {
            bencher.iter(|| kernels::dot(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

/// Scalar vs AVX2 on the same machine (the two dispatch targets produce
/// bit-identical values; this measures the pure throughput gap).
fn bench_dot_isa(c: &mut Criterion) {
    let mut isas = vec![simd::Isa::Scalar];
    if simd::avx2_supported() {
        isas.push(simd::Isa::Avx2);
    }
    let mut group = c.benchmark_group("kernels/dot_isa");
    for dim in [10usize, 50, 100, 500] {
        let a: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
        for &isa in &isas {
            let label = format!("{isa:?}/{dim}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &dim, |bencher, _| {
                let prev = simd::override_isa(isa);
                bencher.iter(|| kernels::dot(black_box(&a), black_box(&b)));
                simd::override_isa(prev);
            });
        }
    }
    group.finish();
}

/// One four-row group through `kernels::dot_rows` (one call of the batched
/// kernel), scalar vs AVX2; divide by 4 for the per-row cost to set against
/// `kernels/dot_isa`.
fn bench_dot_rows(c: &mut Criterion) {
    let mut isas = vec![simd::Isa::Scalar];
    if simd::avx2_supported() {
        isas.push(simd::Isa::Avx2);
    }
    let mut group = c.benchmark_group("kernels/dot_rows");
    for dim in [10usize, 50, 100, 500] {
        let q: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
        let rows: Vec<Vec<f64>> =
            (0..4).map(|r| (0..dim).map(|i| ((i + 7 * r) as f64).cos()).collect()).collect();
        for &isa in &isas {
            let label = format!("{isa:?}/{dim}");
            group.bench_with_input(BenchmarkId::from_parameter(label), &dim, |bencher, _| {
                let prev = simd::override_isa(isa);
                bencher.iter(|| {
                    let mut sum = 0.0;
                    let tagged = black_box(&rows).iter().map(|r| ((), r.as_slice()));
                    kernels::dot_rows(black_box(&q), tagged, |_, v| sum += v);
                    sum
                });
                simd::override_isa(prev);
            });
        }
    }
    group.finish();
}

fn bench_index_build_and_scan(c: &mut Criterion) {
    let dirs = {
        let (_, d) = GeneratorConfig::gaussian(2000, 50, 0.0).generate(1).decompose();
        d
    };
    c.bench_function("kernels/column_index_build_2000x50", |b| {
        b.iter(|| ColumnIndex::build(black_box(&dirs)));
    });
    c.bench_function("kernels/row_index_build_2000x50", |b| {
        b.iter(|| RowIndex::build(black_box(&dirs)));
    });
    // Both layouts from one sort per coordinate (what warm-up builds).
    c.bench_function("kernels/sorted_lists_both_2000x50", |b| {
        b.iter(|| build_both(black_box(&dirs)));
    });
    let col = ColumnIndex::build(&dirs);
    c.bench_function("kernels/scan_range_search", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in 0..50 {
                let (lo, hi) = col.scan_range(black_box(f), -0.1, 0.1);
                acc += hi - lo;
            }
            acc
        });
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dot, bench_dot_isa, bench_dot_rows, bench_index_build_and_scan
}
criterion_main!(benches);
