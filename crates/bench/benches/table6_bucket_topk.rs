//! **Table 6 / Fig. 7c–f** as a criterion bench: the nine LEMP bucket-method
//! variants on Row-Top-k (IE-SVDᵀ and Netflix shapes) at k = 10.
//!
//! Shape target (paper): LEMP-LI best or tied-best; INCR ≫ COORD on
//! low-skew data; TA-in-bucket far better than standalone TA; L2AP's
//! aggressive filters cost more than they save vs INCR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_bench::runners::{run_topk, Algo};
use lemp_bench::workload::Workload;
use lemp_core::algos::{coord, incr, length, QueryCtx, Sink};
use lemp_core::{BucketPolicy, LempVariant, MethodScratch, ProbeBuckets};
use lemp_data::datasets::Dataset;
use lemp_data::synthetic::GeneratorConfig;

fn bench_variants_topk(c: &mut Criterion) {
    for (ds, scale) in [(Dataset::IeSvdT, 0.002), (Dataset::Netflix, 0.02)] {
        let w = Workload::new(ds, scale, 42);
        let mut group = c.benchmark_group(format!("table6/{}/k10", w.name));
        for variant in LempVariant::all() {
            group.bench_with_input(
                BenchmarkId::from_parameter(variant.name()),
                &variant,
                |b, &variant| {
                    b.iter(|| run_topk(Algo::Lemp(variant), &w, 10));
                },
            );
        }
        group.finish();
    }
}

/// The bucket methods one call at a time on a single 50-d bucket, at a
/// local threshold of −1: every feasible region is the whole list, so each
/// method's work is known by construction. LENGTH emits all n rows,
/// COORD1 copies one list, COORD2 counts two lists and rescans one, INCR1
/// and INCR2 accumulate one and two lists and filter all n rows. Two
/// bucket sizes separate the per-call from the per-row cost. The tuner's
/// unit prices (`lemp_core::tuner`) come from this group.
fn bench_method_units(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6/methods");
    let dir = {
        let q = GeneratorConfig::gaussian(1, 50, 0.0).generate(8);
        let (_, dirs) = q.decompose();
        dirs.vector(0).to_vec()
    };
    let ctx = QueryCtx {
        dir: &dir,
        len: 1.0,
        theta: -1e9,
        theta_over_len: -1e9,
        local_threshold: -1.0,
        scaled: &dir,
    };
    for n in [512usize, 2048] {
        let store = GeneratorConfig::gaussian(n, 50, 0.72).generate(7);
        let policy = BucketPolicy { min_bucket: n, length_ratio: 1e-9, cache_bytes: 0, seed: 1 };
        let mut pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 1);
        pb.buckets_mut()[0].ensure_sorted_lists();
        let bucket = &pb.buckets()[0];
        let col = bucket.indexes.coord.as_ref().expect("built above");
        let row = bucket.indexes.incr.as_ref().expect("built above");
        let mut scratch = MethodScratch::new(n);
        let mut sink = Sink::default();
        let mut run = |name: &str, method: &mut dyn FnMut(&mut MethodScratch, &mut Sink)| {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    sink.clear();
                    method(&mut scratch, &mut sink);
                    sink.unverified.len()
                });
            });
        };
        run("LENGTH", &mut |_, sink| length::run(&ctx, bucket, sink));
        run("COORD1", &mut |scratch, sink| coord::run(&ctx, bucket, col, 1, scratch, sink));
        run("COORD2", &mut |scratch, sink| coord::run(&ctx, bucket, col, 2, scratch, sink));
        run("INCR1", &mut |scratch, sink| incr::run(&ctx, bucket, row, 1, scratch, sink));
        run("INCR2", &mut |scratch, sink| incr::run(&ctx, bucket, row, 2, scratch, sink));
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_method_units, bench_variants_topk
}
criterion_main!(benches);
