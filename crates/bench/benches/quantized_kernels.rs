//! Micro-benchmarks of the quantized bucket scan: the small-LUT
//! gather-accumulate kernel against the full-precision f64 scan it
//! replaces, across bucket sizes and code widths.
//!
//! The quantized path does `m` table lookups per probe (plus one LUT build
//! of `m · k` dots per bucket visit) where the exact path does one
//! `dim`-length dot per probe — the ISSUE's ≥ 2× scan-throughput target at
//! 8 bits is measured here, and the scalar/AVX2 gap of the LUT kernel is
//! isolated the same way `kernels.rs` isolates it for `dot`. The
//! preprocessing side is measured too: training an engine-sized codebook
//! and encoding a catalogue through the nearest-centroid kernel, scalar vs
//! AVX2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_core::quant::{Codebook, TRAIN_SAMPLE};
use lemp_core::QuantizedBucket;
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::{kernels, simd, VectorStore};
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 50;

fn dirs(n: usize, seed: u64) -> VectorStore {
    let (_, d) = GeneratorConfig::gaussian(n, DIM, 0.0).generate(seed).decompose();
    d
}

/// The exact bucket scan the LUT replaces: one f64 dot per probe.
fn full_scan(query: &[f64], probes: &VectorStore, out: &mut Vec<f64>) {
    out.clear();
    out.extend(probes.iter().map(|p| kernels::dot(query, p)));
}

fn bench_scan_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized/scan");
    for n in [256usize, 1024, 4096] {
        let probes = dirs(n, 7);
        let query = dirs(1, 11).vector(0).to_vec();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("full_f64", n), &n, |b, _| {
            b.iter(|| full_scan(black_box(&query), black_box(&probes), &mut out));
        });
        for bits in [4u8, 8, 12] {
            let quant = QuantizedBucket::train(&probes, bits, 1).unwrap();
            let mut lut = Vec::new();
            // LUT build + gather scan: the whole per-bucket-visit cost.
            group.bench_with_input(BenchmarkId::new(&format!("lut{bits}"), n), &n, |b, _| {
                b.iter(|| {
                    quant.fill_lut(black_box(&query), &mut lut);
                    quant.scores(&lut, &mut out);
                });
            });
            // Gather scan alone: the marginal per-probe cost once the LUT
            // amortizes over a large bucket.
            quant.fill_lut(&query, &mut lut);
            group.bench_with_input(BenchmarkId::new(&format!("gather{bits}"), n), &n, |b, _| {
                b.iter(|| quant.scores(black_box(&lut), &mut out));
            });
        }
    }
    group.finish();
}

/// Scalar vs AVX2 on the 8-bit gather kernel (bit-identical outputs; this
/// measures the pure throughput gap of `lut_scan_u8`).
fn bench_scan_isa(c: &mut Criterion) {
    let mut isas = vec![simd::Isa::Scalar];
    if simd::avx2_supported() {
        isas.push(simd::Isa::Avx2);
    }
    let probes = dirs(4096, 7);
    let query = dirs(1, 11).vector(0).to_vec();
    let quant = QuantizedBucket::train(&probes, 8, 1).unwrap();
    let mut lut = Vec::new();
    quant.fill_lut(&query, &mut lut);
    let mut out = Vec::new();
    let mut group = c.benchmark_group("quantized/gather_isa");
    for &isa in &isas {
        group.bench_with_input(BenchmarkId::from_parameter(format!("{isa:?}")), &isa, |b, _| {
            let prev = simd::override_isa(isa);
            b.iter(|| quant.scores(black_box(&lut), &mut out));
            simd::override_isa(prev);
        });
    }
    group.finish();
}

/// Scalar vs AVX2 on codebook preprocessing: Lloyd training of an 8-bit
/// codebook on an engine's full sample (2,048 × 50), then encoding 4,096
/// directions against it — both run the nearest-centroid search, whose
/// results are bit-identical on either path.
fn bench_train_encode_isa(c: &mut Criterion) {
    let mut isas = vec![simd::Isa::Scalar];
    if simd::avx2_supported() {
        isas.push(simd::Isa::Avx2);
    }
    let sample = dirs(TRAIN_SAMPLE, 5);
    let catalogue = dirs(4096, 6);
    let trained = Arc::new(Codebook::train(&sample, 8, 1).unwrap());
    let mut group = c.benchmark_group("quantized/train_encode");
    for &isa in &isas {
        let prev = simd::override_isa(isa);
        group.bench_with_input(BenchmarkId::new("train8", format!("{isa:?}")), &isa, |b, _| {
            b.iter(|| Codebook::train(black_box(&sample), 8, 1));
        });
        group.bench_with_input(BenchmarkId::new("encode8", format!("{isa:?}")), &isa, |b, _| {
            b.iter(|| QuantizedBucket::encode(Arc::clone(&trained), black_box(&catalogue)));
        });
        simd::override_isa(prev);
    }
    group.finish();
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
    targets = bench_scan_vs_full, bench_scan_isa, bench_train_encode_isa
}
criterion_main!(benches);
