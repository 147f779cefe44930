//! Sample-based algorithm selection (Sec. 4.4 of the paper).
//!
//! "LEMP uses a simple, pragmatic method for algorithm selection: it samples
//! a small set of query vectors and tests the different methods for each
//! bucket. We observe the wall-clock times obtained by the various methods
//! and select a threshold `t_b` for each bucket: whenever `θ_b(q) < t_b`,
//! LEMP will use LENGTH, otherwise it uses coordinate-based pruning.
//! Similarly, we select for each bucket a parameter `φ_b` … we simply take
//! the choice that performed best on the sampled query vectors."
//!
//! Implementation: for every bucket and every sampled (unpruned) query we
//! time LENGTH and the variant's coordinate method for φ ∈ 1..=5, *including
//! the verification cost* the produced candidate set would incur (candidate
//! counts are exactly what differentiates the methods). `φ_b` minimizes the
//! summed coordinate-method time; `t_b` is then picked on a grid to minimize
//! the modeled mixed cost `Σ_q [θ_b(q) < t_b ? t_LENGTH(q) : t_COORD(q)]`.

use std::time::Instant;

use lemp_linalg::kernels;

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{MethodScratch, QueryCtx, Sink};
use crate::bounds::{local_threshold, region_threshold};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::{
    candidate_rows, ensure_for, ensure_sorted_lists, run_method, seed_topk, BuildClock, RunConfig,
};
use crate::query::QueryBatch;
use crate::variant::{resolve, LempVariant, ResolvedMethod, TunedParams};

/// Largest focus-set size the tuner tries (the paper: "typically in the
/// range of 1–5").
pub const MAX_PHI: usize = 5;

/// Grid resolution for the `t_b` search.
const TB_GRID: usize = 20;

/// Tuner output.
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Per-bucket parameters, aligned with the bucket list.
    pub per_bucket: Vec<TunedParams>,
    /// Wall-clock spent tuning (reported like the paper's "tuning time").
    pub tune_ns: u64,
}

impl Tuning {
    /// Untuned defaults for `n` buckets (used by variants that need no
    /// tuning: L, TA, Tree, L2AP, BLSH).
    pub fn untuned(n: usize) -> Self {
        Self { per_bucket: vec![TunedParams::default(); n], tune_ns: 0 }
    }
}

/// Per-sampled-query thresholds used during tuning: Above-θ uses the global
/// θ for everyone; Row-Top-k seeds a per-query `θ′` the same way the driver
/// does (k longest probes).
pub(crate) enum TuneGoal {
    Above(f64),
    TopK(usize),
}

/// Runs the tuner: φ/t_b selection for variants with a coordinate method,
/// plus — when quantization is enabled — a per-bucket decision whether the
/// quantized LUT scan beats the variant's own method (any variant). Both
/// passes share one per-sample threshold (seeded once per sampled query).
/// `clock` accumulates index builds triggered by tuning (they count as
/// preprocessing).
pub(crate) fn tune(
    buckets: &mut ProbeBuckets,
    batch: &QueryBatch,
    goal: &TuneGoal,
    cfg: &RunConfig,
    scratch: &mut MethodScratch,
    clock: &mut BuildClock,
) -> Tuning {
    let nbuckets = buckets.bucket_count();
    let phi = cfg.variant.needs_phi() && nbuckets > 0 && !batch.is_empty();
    let quant = cfg.quantize_bits > 0 && nbuckets > 0 && !batch.is_empty();
    if !phi && !quant {
        return Tuning::untuned(nbuckets);
    }
    let start = Instant::now();
    let samples = sample_thresholds(buckets, batch, goal, cfg);
    let mut per_bucket = if phi {
        tune_phi_tb(buckets, batch, &samples, cfg, scratch, clock)
    } else {
        vec![TunedParams::default(); nbuckets]
    };
    if quant {
        tune_quant(buckets, batch, &samples, cfg, scratch, clock, &mut per_bucket);
    }
    Tuning { per_bucket, tune_ns: start.elapsed().as_nanos() as u64 }
}

/// One sampled query: its position in the batch, its effective θ (global
/// for Above, the seeded θ′ for TopK) and the ‖q‖ the bounds see (1 for
/// TopK, Sec. 4.5).
struct Sample {
    qi: usize,
    theta: f64,
    len: f64,
}

/// Draws the tuning sample and computes each sample's threshold once.
fn sample_thresholds(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    goal: &TuneGoal,
    cfg: &RunConfig,
) -> Vec<Sample> {
    // The paper's tuning cost is "negligible since the number of query
    // vectors is large"; keep that true at small m by capping the sample at
    // a few percent of the query count.
    let effective = cfg.sample_size.min(batch.len() / 20 + 4);
    batch
        .sample_positions(effective)
        .into_iter()
        .map(|qi| match goal {
            TuneGoal::Above(theta) => Sample { qi, theta: *theta, len: batch.lengths[qi] },
            TuneGoal::TopK(k) => {
                Sample { qi, theta: seed_threshold(buckets, batch.dirs.vector(qi), *k), len: 1.0 }
            }
        })
        .collect()
}

/// The query context of `sample` against `bucket`, or `None` if the
/// bucket prunes it.
fn sample_ctx<'a>(batch: &'a QueryBatch, sample: &Sample, bucket: &Bucket) -> Option<QueryCtx<'a>> {
    if local_threshold(sample.theta, sample.len, bucket.max_len) > 1.0 {
        return None;
    }
    let dir = batch.dirs.vector(sample.qi);
    Some(QueryCtx {
        dir,
        len: sample.len,
        theta: sample.theta,
        theta_over_len: safe_div(sample.theta, sample.len),
        local_threshold: region_threshold(sample.theta, sample.len, bucket.max_len, bucket.min_len),
        scaled: dir, // tuning measures relative cost; q̄ scale suffices
    })
}

/// The Sec. 4.4 φ/t_b selection (coordinate-method variants only).
fn tune_phi_tb(
    buckets: &mut ProbeBuckets,
    batch: &QueryBatch,
    samples: &[Sample],
    cfg: &RunConfig,
    scratch: &mut MethodScratch,
    clock: &mut BuildClock,
) -> Vec<TunedParams> {
    let nbuckets = buckets.bucket_count();
    let incr = cfg.variant.coord_is_incr();
    let mut per_bucket = Vec::with_capacity(nbuckets);
    let mut sink = Sink::default();
    // Reused measurement rows: θ_b, LENGTH time, per-φ coordinate time.
    let mut rows: Vec<(f64, u64, [u64; MAX_PHI])> = Vec::new();
    for b in 0..nbuckets {
        let bucket = &mut buckets.buckets_mut()[b];
        scratch.ensure(bucket.len());
        rows.clear();
        let max_phi = MAX_PHI.min(bucket.dirs.dim());
        // The coordinate methods need their index; build it now (counted as
        // preprocessing, like the paper's "maximum indexing time"). The INCR
        // variants run φ = 1 on COORD and φ ≥ 2 on INCR: one sort per
        // coordinate builds both.
        if incr && max_phi > 1 {
            ensure_sorted_lists(bucket, clock);
        }
        for phi in 1..=max_phi {
            ensure_for(bucket, coord_method(incr, phi), 1e-3, cfg, 0, clock);
        }
        for sample in samples {
            let Some(ctx) = sample_ctx(batch, sample, bucket) else { continue };
            let t_len = time_method(ResolvedMethod::Length, &ctx, bucket, None, scratch, &mut sink);
            let mut t_phi = [u64::MAX; MAX_PHI];
            for phi in 1..=max_phi {
                t_phi[phi - 1] =
                    time_method(coord_method(incr, phi), &ctx, bucket, None, scratch, &mut sink);
            }
            rows.push((ctx.local_threshold, t_len, t_phi));
        }
        per_bucket.push(pick_params(&rows, max_phi, cfg));
    }
    per_bucket
}

/// Per-bucket quantization decision: time the quantized LUT scan (including
/// the verification its candidate set would cost) against the variant's own
/// resolved method on the sampled queries, and flip `quant` on wherever the
/// compressed scan is at least as fast — a tie favors quantization since it
/// also shrinks residency. The scan is priced the way the query path pays
/// for it: the query's lookup table is filled once per query, not per
/// bucket visit, so it is filled before the clock starts. The engine's
/// codebook trains here if it has none yet (preprocessing, like the
/// coordinate indexes); exactness never depends on this choice.
#[allow(clippy::too_many_arguments)]
fn tune_quant(
    buckets: &mut ProbeBuckets,
    batch: &QueryBatch,
    samples: &[Sample],
    cfg: &RunConfig,
    scratch: &mut MethodScratch,
    clock: &mut BuildClock,
    per_bucket: &mut [TunedParams],
) {
    buckets.ensure_quantized(cfg.quantize_bits, clock);
    let blsh_table = if cfg.variant == LempVariant::Blsh {
        Some(MinMatchTable::new(cfg.blsh_bits, cfg.blsh_eps))
    } else {
        None
    };
    let mut sink = Sink::default();
    for (b, params) in per_bucket.iter_mut().enumerate().take(buckets.bucket_count()) {
        let seed = crate::runner::cfg_seed(cfg, b);
        let bucket = &mut buckets.buckets_mut()[b];
        if !quant_ready(bucket) {
            continue;
        }
        if cfg.quantize_force {
            // Deterministic override: skip the timing race entirely.
            params.quant = true;
            continue;
        }
        scratch.ensure(bucket.len());
        let mut t_quant = 0u128;
        let mut t_base = 0u128;
        let mut measured = false;
        for sample in samples {
            let Some(ctx) = sample_ctx(batch, sample, bucket) else { continue };
            let incumbent = resolve(cfg.variant, params, ctx.local_threshold);
            ensure_for(bucket, incumbent, 1e-3, cfg, seed, clock);
            let codebook = bucket.indexes.quant.as_ref().expect("encoded above").codebook();
            scratch.lut.table_for(codebook, ctx.dir);
            t_quant +=
                time_method(ResolvedMethod::Quant, &ctx, bucket, None, scratch, &mut sink) as u128;
            t_base += time_method(incumbent, &ctx, bucket, blsh_table.as_ref(), scratch, &mut sink)
                as u128;
            measured = true;
        }
        if measured && t_quant <= t_base {
            params.quant = true;
        }
    }
}

/// Whether QUANT can serve `bucket`: it holds codes, and some query can
/// reach it. `quantize_force` routes exactly these buckets to QUANT.
pub(crate) fn quant_ready(bucket: &Bucket) -> bool {
    bucket.max_len > 0.0 && bucket.indexes.quant.is_some()
}

fn coord_method(incr: bool, phi: usize) -> ResolvedMethod {
    if incr && phi > 1 {
        ResolvedMethod::Incr(phi)
    } else {
        ResolvedMethod::Coord(phi)
    }
}

fn safe_div(theta: f64, len: f64) -> f64 {
    if len <= 0.0 {
        if theta > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        theta / len
    }
}

/// Times one method run including the verification the candidate set would
/// cost (results are discarded — tuning is measurement only).
fn time_method(
    method: ResolvedMethod,
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
) -> u64 {
    sink.clear();
    let start = Instant::now();
    let _ = run_method(method, ctx, bucket, blsh_table, scratch, sink);
    // Priced as the query loop pays: the verification kernel on `origs`.
    let mut sum = 0.0;
    kernels::dot_rows(ctx.dir, candidate_rows(bucket, &sink.unverified), |_, v| sum += v);
    std::hint::black_box(sum);
    start.elapsed().as_nanos() as u64
}

/// Seeds the Row-Top-k warm-up threshold the same way the driver does: the
/// smallest of the inner products with the k longest probes.
pub(crate) fn seed_threshold(buckets: &ProbeBuckets, dir: &[f64], k: usize) -> f64 {
    let mut top = lemp_linalg::TopK::new(k);
    seed_topk(buckets.buckets(), dir, k, &mut top, |_, _| {});
    top.threshold()
}

/// Selects `φ_b` (argmin summed time) and `t_b` (grid argmin of the mixed
/// cost model) from the measurement rows.
fn pick_params(
    rows: &[(f64, u64, [u64; MAX_PHI])],
    max_phi: usize,
    cfg: &RunConfig,
) -> TunedParams {
    if rows.is_empty() || max_phi == 0 {
        return TunedParams::default();
    }
    // φ_b: smallest total coordinate-method time.
    let mut best_phi = 1;
    let mut best_total = u128::MAX;
    for phi in 1..=max_phi {
        let total: u128 = rows.iter().map(|r| r.2[phi - 1] as u128).sum();
        if total < best_total {
            best_total = total;
            best_phi = phi;
        }
    }
    // t_b: grid argmin of the mixed cost (only for hybrid variants; pure
    // coordinate variants keep t_b = 0 so LENGTH is never chosen).
    if !cfg.variant.needs_tb() {
        return TunedParams { tb: 0.0, phi: best_phi, quant: false };
    }
    let mut best_tb = 0.0;
    let mut best_cost = u128::MAX;
    for g in 0..=TB_GRID + 1 {
        // grid over [0, 1] plus a sentinel above 1 (= always LENGTH)
        let tb = g as f64 / TB_GRID as f64;
        let cost: u128 = rows
            .iter()
            .map(
                |&(th_b, t_len, t_phi)| {
                    if th_b < tb {
                        t_len as u128
                    } else {
                        t_phi[best_phi - 1] as u128
                    }
                },
            )
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best_tb = tb;
        }
    }
    TunedParams { tb: best_tb, phi: best_phi, quant: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketPolicy;
    use crate::variant::LempVariant;
    use lemp_data::synthetic::GeneratorConfig;
    use lemp_linalg::VectorStore;

    fn setup(n: usize, m: usize, cov: f64) -> (ProbeBuckets, QueryBatch, VectorStore) {
        let probes = GeneratorConfig::gaussian(n, 8, cov).generate(5);
        let queries = GeneratorConfig::gaussian(m, 8, cov).generate(6);
        let pb = ProbeBuckets::build(&probes, &BucketPolicy::default());
        let batch = QueryBatch::build(&queries);
        (pb, batch, queries)
    }

    #[test]
    fn tuner_produces_params_for_every_bucket() {
        let (mut pb, batch, _) = setup(400, 60, 1.0);
        let cfg = RunConfig { variant: LempVariant::LI, sample_size: 10, ..Default::default() };
        let mut scratch = MethodScratch::new(512);
        let mut clock = BuildClock::default();
        let tuning = tune(&mut pb, &batch, &TuneGoal::Above(0.5), &cfg, &mut scratch, &mut clock);
        assert_eq!(tuning.per_bucket.len(), pb.bucket_count());
        for p in &tuning.per_bucket {
            assert!(p.phi >= 1 && p.phi <= MAX_PHI);
            assert!(p.tb >= 0.0 && p.tb <= 1.05);
        }
        assert!(tuning.tune_ns > 0);
        assert!(clock.built > 0, "tuning builds the coordinate indexes");
    }

    #[test]
    fn variants_without_phi_are_untuned() {
        let (mut pb, batch, _) = setup(200, 20, 0.5);
        let cfg = RunConfig { variant: LempVariant::L, ..Default::default() };
        let mut scratch = MethodScratch::new(256);
        let mut clock = BuildClock::default();
        let tuning = tune(&mut pb, &batch, &TuneGoal::Above(0.5), &cfg, &mut scratch, &mut clock);
        assert_eq!(tuning.tune_ns, 0);
        assert_eq!(clock.built, 0);
        assert!(tuning.per_bucket.iter().all(|p| *p == TunedParams::default()));
    }

    #[test]
    fn quantize_enabled_trains_codebooks_and_decides_per_bucket() {
        let (mut pb, batch, _) = setup(400, 60, 1.0);
        // LEMP-L needs no φ tuning, but the quant pass must still run.
        let cfg = RunConfig { variant: LempVariant::L, quantize_bits: 8, ..RunConfig::default() };
        let mut scratch = MethodScratch::new(512);
        let mut clock = BuildClock::default();
        let tuning = tune(&mut pb, &batch, &TuneGoal::Above(0.5), &cfg, &mut scratch, &mut clock);
        assert_eq!(tuning.per_bucket.len(), pb.bucket_count());
        assert!(clock.built > 0, "codebooks train during tuning");
        assert!(pb.buckets().iter().all(|b| b.indexes.quant.is_some()));
        assert!(tuning.tune_ns > 0, "the quant pass counts as tuning time");
    }

    #[test]
    fn topk_goal_seeds_thresholds() {
        let (pb, batch, _) = setup(300, 10, 0.8);
        let th = seed_threshold(&pb, batch.dirs.vector(0), 5);
        assert!(th.is_finite());
        // k larger than n: threshold stays unfull → −∞
        let th = seed_threshold(&pb, batch.dirs.vector(0), 10_000);
        assert_eq!(th, f64::NEG_INFINITY);
    }

    #[test]
    fn empty_inputs_yield_untuned() {
        let probes = GeneratorConfig::gaussian(100, 4, 0.2).generate(9);
        let mut pb = ProbeBuckets::build(&probes, &BucketPolicy::default());
        let empty = VectorStore::empty(4).unwrap();
        let batch = QueryBatch::build(&empty);
        let cfg = RunConfig { variant: LempVariant::LI, ..Default::default() };
        let mut scratch = MethodScratch::new(128);
        let mut clock = BuildClock::default();
        let tuning = tune(&mut pb, &batch, &TuneGoal::Above(0.5), &cfg, &mut scratch, &mut clock);
        assert_eq!(tuning.per_bucket.len(), pb.bucket_count());
        assert_eq!(tuning.tune_ns, 0);
    }
}
