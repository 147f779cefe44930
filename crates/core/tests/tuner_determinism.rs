//! The Sec. 4.4 tuner prices methods by counted work, never by a clock, so
//! its per-bucket `t_b`/`φ_b` are a function of the probes, the sample and
//! the configuration alone: repeated tunes, fresh engines and repeated
//! warm-ups agree bit for bit, and so do the kernel ISAs (the golden hash
//! below is checked by the default run on AVX2 and by the scalar job with
//! `LEMP_FORCE_ISA=scalar`).

use lemp_core::shard::ShardPolicy;
use lemp_core::{
    BucketPolicy, DynamicLemp, Engine, Lemp, QueryRequest, RunConfig, ShardedLemp, TunedParams,
    WarmGoal,
};
use lemp_data::datasets::Dataset;
use lemp_linalg::{kernels, VectorStore};

const K: usize = 10;

/// A small catalogue with Netflix statistics (low length skew): 14,400
/// queries × 533 probes.
fn netflix() -> (VectorStore, VectorStore) {
    Dataset::Netflix.spec().scaled(0.03).generate(27)
}

/// A small catalogue with IE-SVD statistics (heavy length skew): 3,084
/// queries × 528 probes.
fn iesvd() -> (VectorStore, VectorStore) {
    Dataset::IeSvd.spec().scaled(0.004).generate(28)
}

/// An Above-θ threshold that prunes: a quarter of the largest possible
/// inner product.
fn biting_theta(q: &VectorStore, p: &VectorStore) -> f64 {
    let longest = |s: &VectorStore| s.iter().map(kernels::norm).fold(0.0, f64::max);
    0.25 * longest(q) * longest(p)
}

/// `TunedParams` as exact bits (`t_b` bits, `φ_b`, QUANT flag).
type Bits = Vec<(u64, usize, bool)>;

/// `TunedParams` as exact bits, so `0.0`/`-0.0` and NaN compare as bits.
fn bits(params: &[TunedParams]) -> Bits {
    params.iter().map(|p| (p.tb.to_bits(), p.phi, p.quant)).collect()
}

/// The tuned parameters of every case, in a fixed order: Row-Top-k on the
/// Netflix catalogue and Above-θ on the IE-SVD one, each through a static
/// `Lemp`, a warmed `DynamicLemp` and a warmed 3-shard `ShardedLemp`.
fn all_params() -> Vec<Vec<TunedParams>> {
    let (nq, np) = netflix();
    let (iq, ip) = iesvd();
    let theta = biting_theta(&iq, &ip);
    let mut out = vec![
        Lemp::builder().build(&np).tune_top_k(&nq, K),
        Lemp::builder().build(&ip).tune_above(&iq, theta),
    ];
    for (q, p, goal, request) in [
        (&nq, &np, WarmGoal::TopK(K), QueryRequest::top_k(K)),
        (&iq, &ip, WarmGoal::Above(theta), QueryRequest::above_theta(theta)),
    ] {
        let mut dynamic = DynamicLemp::new(p, BucketPolicy::default(), RunConfig::default());
        dynamic.warm(q, goal);
        out.push(dynamic.plan(&request).segments()[0].params().to_vec());
        let mut sharded =
            ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).build(p);
        sharded.warm(q, goal);
        out.extend(sharded.plan(&request).segments().iter().map(|s| s.params().to_vec()));
    }
    out
}

/// FNV-1a over the exact bits of every case's parameters.
fn fingerprint(cases: &[Vec<TunedParams>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        }
    };
    for case in cases {
        eat(case.len() as u64);
        for (tb, phi, quant) in bits(case) {
            eat(tb);
            eat(phi as u64);
            eat(u64::from(quant));
        }
    }
    h
}

/// Tunes one engine three times and two fresh engines once each: all five
/// parameter sets must be bit-equal, and off the untuned defaults.
fn assert_repeats(name: &str, probes: &VectorStore, tune: impl Fn(&mut Lemp) -> Bits) {
    let mut first = Lemp::builder().build(probes);
    let want = tune(&mut first);
    assert!(want.iter().any(|&(_, phi, _)| phi != 2), "{name}: tuning must move off the defaults");
    for run in 0..2 {
        assert_eq!(tune(&mut Lemp::builder().build(probes)), want, "{name}: fresh engine {run}");
        assert_eq!(tune(&mut first), want, "{name}: repeated tune {run}");
    }
}

#[test]
fn tuning_repeats_across_fresh_engines_and_repeated_tunes() {
    let (nq, np) = netflix();
    let (iq, ip) = iesvd();
    let theta = biting_theta(&iq, &ip);
    assert_repeats("netflix top-k", &np, |e| bits(&e.tune_top_k(&nq, K)));
    assert_repeats("ie-svd above-θ", &ip, |e| bits(&e.tune_above(&iq, theta)));
}

#[test]
fn repeated_warm_ups_plan_the_same_parameters() {
    let (q, p) = netflix();
    let request = QueryRequest::top_k(K);
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), RunConfig::default());
    let mut sharded = ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).build(&p);
    let plans = |dynamic: &DynamicLemp, sharded: &ShardedLemp| {
        let mut segments = vec![bits(dynamic.plan(&request).segments()[0].params())];
        segments.extend(sharded.plan(&request).segments().iter().map(|s| bits(s.params())));
        segments
    };
    dynamic.warm(&q, WarmGoal::TopK(K));
    sharded.warm(&q, WarmGoal::TopK(K));
    let first = plans(&dynamic, &sharded);
    assert_eq!(first.len(), 4);
    dynamic.warm(&q, WarmGoal::TopK(K));
    sharded.warm(&q, WarmGoal::TopK(K));
    assert_eq!(plans(&dynamic, &sharded), first);
}

#[test]
fn tuned_params_match_their_golden_hash() {
    // Recorded once from this tuner; the AVX2 and scalar kernels must both
    // reproduce it (the process's active ISA is whichever it dispatched
    // to, `LEMP_FORCE_ISA=scalar` pins the fallback).
    const GOLDEN: u64 = 0x12C7_9C40_A29D_5C59;
    let got = fingerprint(&all_params());
    let isa = lemp_linalg::simd::active();
    assert_eq!(got, GOLDEN, "{isa:?}: tuned parameters drifted (got {got:#018X})");
}
