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
//! The paper times the methods; this tuner counts their work instead. For
//! every bucket and every sampled query that reaches it, it runs LENGTH and
//! the variant's coordinate method for φ ∈ 1..=5 and reads back what each
//! did: the candidates it leaves to verify, the focus coordinates it set
//! up, the sorted-list entries it scanned, the codes it scored. That work
//! times fixed per-unit prices is the method's price for the pair,
//! *including the verification* its candidate set costs (candidate counts
//! are exactly what differentiates the methods). `φ_b` minimizes the
//! summed price of the coordinate method; `t_b` is then picked on a grid to
//! minimize the mixed price `Σ_q [θ_b(q) < t_b ? LENGTH(q) : COORD(q)]`.
//! With quantization on, the same prices decide per bucket between the LUT
//! scan and the exact method.
//!
//! Why count: a wall-clock race measures the host as much as the methods.
//! Its picks moved with machine load, so two warm-ups of one engine could
//! serve different candidate counts, and the timed runs were most of
//! set-up. Counts depend only on the probes, the sample and the
//! configuration, and they come from comparisons and from the dot kernels,
//! which are bit-identical on every ISA. So the same inputs tune to
//! bit-equal [`TunedParams`] on every run and on both kernel ISAs. Nothing
//! here reads a clock except [`Tuning::tune_ns`], which reports time.
//!
//! Row-Top-k samples see the bounds the query drivers pose. Each sampled
//! query is seeded and swept once ([`runner::sweep_buckets`]), recording the
//! running `θ′` on entry to each bucket and stopping where the drivers
//! stop. Every exact method pushes every probe that scores at least `θ′`,
//! so `θ′` on entry to a bucket is the k-th best score over the seeds and
//! the earlier buckets, whatever method ran; the sample sweep pushes
//! LENGTH's prefix. A bucket the sweep never reaches adds no row, just as
//! length pruning drops Above-θ samples.
//!
//! The unit prices are integer picoseconds, measured once on a 2-vCPU
//! x86-64 server (AVX2 kernels) from the criterion benches named next to
//! each constant. Only their ratios matter: they rank the methods the way
//! that host's clock did, and they never affect exactness.

use std::time::Instant;

use lemp_linalg::TopK;

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{length, MethodScratch, QueryCtx, Sink};
use crate::bounds::{local_threshold, region_threshold};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::{
    ensure_for, ensure_sorted_lists, run_method, seed_query, verify_topk, BuildClock, RunConfig,
};
use crate::query::QueryBatch;
use crate::runner::{self, sweep_buckets, sweep_ctx, theta_over_len};
use crate::variant::{resolve, ResolvedMethod, TunedParams};

/// Largest focus-set size the tuner tries (the paper: "typically in the
/// range of 1–5").
pub const MAX_PHI: usize = 5;

/// Grid resolution for the `t_b` search.
const TB_GRID: usize = 20;

/// One multiply-add of a verification dot (`kernels/dot_rows`, AVX2: the
/// slope of the per-row time over dims 10–500).
const MAC_PS: u64 = 76;
/// Per verified candidate beyond its multiply-adds (`kernels/dot_rows`,
/// AVX2: the intercept of that fit).
const CAND_PS: u64 = 3_400;
/// Per local id LENGTH or COORD(1) emits as one run
/// (`table6/methods/LENGTH`: the slope over the two bucket sizes).
const EMIT_PS: u64 = 60;
/// Per call of LENGTH: its one binary search (`table6/methods/LENGTH`: the
/// intercept).
const SEARCH_PS: u64 = 26_000;
/// Per focus coordinate of COORD or INCR: picking it and binary-searching
/// its scan range (`table6/methods/COORD1`: the intercept).
const FOCUS_PS: u64 = 66_000;
/// Per sorted-list entry COORD counts with φ ≥ 2, in the scan and in the
/// rescan of the smallest range (`table6/methods/COORD2/2048`: a third of
/// the per-row time, two scans and one rescan per row).
const BUMP_PS: u64 = 1_400;
/// Per sorted-list entry INCR accumulates (`table6/methods/INCR2/2048`
/// minus `table6/methods/INCR1/2048`, per row).
const ACCUM_PS: u64 = 1_700;
/// Per local id INCR touched and filtered by Eq. 5
/// (`table6/methods/INCR1/2048` per row, minus one accumulation).
const FILTER_PS: u64 = 4_400;
/// Per code the QUANT scan scores, `n·m` per bucket visit
/// (`quantized/scan/gather8/4096`: 4,096 probes of 13 subspaces).
const CODE_PS: u64 = 490;

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

/// What the sampled queries are tuned for: Above-θ poses the global θ to
/// every bucket it reaches; Row-Top-k poses the running `θ′` of its sweep.
pub(crate) enum TuneGoal {
    Above(f64),
    TopK(usize),
}

/// Runs the tuner: φ/t_b selection for variants with a coordinate method,
/// plus — when quantization is enabled — a per-bucket decision whether the
/// quantized LUT scan beats the variant's own method (any variant). Both
/// passes share one set of per-sample thresholds (one sweep per sampled
/// query). `clock` accumulates index builds triggered by tuning (they count
/// as preprocessing).
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
    let samples = sample_thresholds(buckets, batch, goal, cfg.sample_size);
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

/// One sampled query: its position in the batch, the ‖q‖ the bounds see
/// (1 for Row-Top-k, Sec. 4.5), and the threshold it poses on entry to each
/// bucket it reaches, in bucket order (θ for Above-θ, the running `θ′` for
/// Row-Top-k). Buckets past the end of `entry` are never reached.
struct Sample {
    qi: usize,
    len: f64,
    entry: Vec<f64>,
}

/// Draws the tuning sample and computes each sample's per-bucket
/// thresholds once.
fn sample_thresholds(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    goal: &TuneGoal,
    sample_size: usize,
) -> Vec<Sample> {
    // The paper's tuning cost is "negligible since the number of query
    // vectors is large"; keep that true at small m by capping the sample at
    // a few percent of the query count.
    let positions = batch.sample_positions(sample_size.min(batch.len() / 20 + 4));
    match *goal {
        TuneGoal::Above(theta) => positions
            .into_iter()
            .map(|qi| {
                let len = batch.lengths[qi];
                // Buckets only get shorter, so the pruned ones form a tail.
                let reached = buckets
                    .buckets()
                    .iter()
                    .position(|bucket| local_threshold(theta, len, bucket.max_len) > 1.0)
                    .unwrap_or(buckets.bucket_count());
                Sample { qi, len, entry: vec![theta; reached] }
            })
            .collect(),
        TuneGoal::TopK(k) => {
            // The drivers' clamp: `k > n` returns every probe anyway.
            let mut top = TopK::new(k.min(buckets.total()));
            let (mut seeds, mut sink) = (Vec::new(), Sink::default());
            positions
                .into_iter()
                .map(|qi| {
                    let dir = batch.dirs.vector(qi);
                    let entry =
                        sweep_thresholds(buckets.buckets(), dir, &mut top, &mut seeds, &mut sink);
                    Sample { qi, len: 1.0, entry }
                })
                .collect()
        }
    }
}

/// Runs the Row-Top-k sweep of `dir` once — seeded like the drivers, each
/// reached bucket's LENGTH prefix pushed into `top` — and returns `θ′` on
/// entry to each bucket it reaches. With `k = 0` the drivers run no sweep.
fn sweep_thresholds(
    buckets: &[Bucket],
    dir: &[f64],
    top: &mut TopK,
    seed_counts: &mut Vec<usize>,
    sink: &mut Sink,
) -> Vec<f64> {
    let mut entry = Vec::new();
    if top.k() == 0 {
        return entry;
    }
    seed_query(buckets, dir, top.k(), top, seed_counts);
    sweep_buckets(buckets, f64::NEG_INFINITY, top, |b, bucket, theta, top| {
        entry.push(theta);
        let ctx = sweep_ctx(dir, theta, bucket);
        sink.clear();
        length::run(&ctx, bucket, sink);
        verify_topk(bucket, &ctx, sink, seed_counts[b], top);
    });
    entry
}

/// The query context of `sample` against bucket `b`, or `None` if the
/// sample does not reach it.
fn sample_ctx<'a>(
    batch: &'a QueryBatch,
    sample: &Sample,
    b: usize,
    bucket: &Bucket,
) -> Option<QueryCtx<'a>> {
    let theta = *sample.entry.get(b)?;
    let dir = batch.dirs.vector(sample.qi);
    Some(QueryCtx {
        dir,
        len: sample.len,
        theta,
        theta_over_len: theta_over_len(theta, sample.len),
        local_threshold: region_threshold(theta, sample.len, bucket.max_len, bucket.min_len),
        scaled: dir, // pricing counts work; the q̄ scale suffices
    })
}

/// One sample's prices on one bucket: its local threshold `θ_b`, LENGTH's
/// price and the coordinate method's price per φ (`u64::MAX` past the
/// bucket's largest φ).
type PriceRow = (f64, u64, [u64; MAX_PHI]);

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
    let mut rows: Vec<PriceRow> = Vec::new();
    for b in 0..nbuckets {
        let bucket = &mut buckets.buckets_mut()[b];
        let max_phi = MAX_PHI.min(bucket.dirs.dim());
        if samples.iter().all(|s| s.entry.len() <= b) {
            // No sample reaches the bucket: nothing to price or index.
            per_bucket.push(TunedParams::default());
            continue;
        }
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
        price_rows(batch, samples, b, bucket, incr, scratch, &mut sink, &mut rows);
        per_bucket.push(pick_params(&rows, max_phi, cfg));
    }
    per_bucket
}

/// Fills `rows` with one [`PriceRow`] per sample that reaches bucket `b`.
/// The bucket's coordinate indexes must be built.
#[allow(clippy::too_many_arguments)]
fn price_rows(
    batch: &QueryBatch,
    samples: &[Sample],
    b: usize,
    bucket: &Bucket,
    incr: bool,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    rows: &mut Vec<PriceRow>,
) {
    rows.clear();
    scratch.ensure(bucket.len());
    let max_phi = MAX_PHI.min(bucket.dirs.dim());
    for sample in samples {
        let Some(ctx) = sample_ctx(batch, sample, b, bucket) else { continue };
        let p_len = price(ResolvedMethod::Length, &ctx, bucket, None, scratch, sink);
        let mut p_phi = [u64::MAX; MAX_PHI];
        for phi in 1..=max_phi {
            p_phi[phi - 1] = price(coord_method(incr, phi), &ctx, bucket, None, scratch, sink);
        }
        rows.push((ctx.local_threshold, p_len, p_phi));
    }
}

/// Per-bucket quantization decision: price the quantized LUT scan
/// (including the verification its candidate set would cost) against the
/// variant's own resolved method on the sampled queries, and flip `quant`
/// on wherever the compressed scan is at most as dear — a tie favors
/// quantization since it also shrinks residency. The query's lookup table
/// is filled once per query, not per bucket visit, so its fill stays out of
/// the per-bucket price. The engine's codebook trains here if it has none
/// yet (preprocessing, like the coordinate indexes); exactness never
/// depends on this choice.
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
    let blsh_table = runner::make_blsh_table(cfg);
    let mut sink = Sink::default();
    for (b, params) in per_bucket.iter_mut().enumerate().take(buckets.bucket_count()) {
        let seed = runner::cfg_seed(cfg, b);
        let bucket = &mut buckets.buckets_mut()[b];
        if !quant_ready(bucket) {
            continue;
        }
        if cfg.quantize_force {
            // Routes every bucket with codes to QUANT without pricing.
            params.quant = true;
            continue;
        }
        scratch.ensure(bucket.len());
        let mut p_quant = 0u128;
        let mut p_base = 0u128;
        let mut priced = false;
        for sample in samples {
            let Some(ctx) = sample_ctx(batch, sample, b, bucket) else { continue };
            let incumbent = resolve(cfg.variant, params, ctx.local_threshold);
            ensure_for(bucket, incumbent, 1e-3, cfg, seed, clock);
            p_quant += price(ResolvedMethod::Quant, &ctx, bucket, None, scratch, &mut sink) as u128;
            p_base +=
                price(incumbent, &ctx, bucket, blsh_table.as_ref(), scratch, &mut sink) as u128;
            priced = true;
        }
        if priced && p_quant <= p_base {
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

/// Runs `method` on one sampled (query, bucket) pair and prices the work
/// it did: its own scan, read back from `scratch`, plus one verification
/// dot per candidate and per inner product the method computed itself
/// (TA, Tree). Nothing is verified and no clock is read.
fn price(
    method: ResolvedMethod,
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
) -> u64 {
    sink.clear();
    let inline_dots = run_method(method, ctx, bucket, blsh_table, scratch, sink);
    let dots = inline_dots + sink.unverified.len() as u64;
    dots * (bucket.dirs.dim() as u64 * MAC_PS + CAND_PS) + scan_price(method, bucket, scratch, sink)
}

/// The price of the scan `method` just ran on `bucket`, from the state it
/// left in `scratch` and `sink`. The adapters (TA, Tree, L2AP, BLSH) are
/// priced by their inner products and candidates alone.
fn scan_price(
    method: ResolvedMethod,
    bucket: &Bucket,
    scratch: &MethodScratch,
    sink: &Sink,
) -> u64 {
    let n = bucket.len() as u64;
    let range_len = |r: &(usize, usize)| (r.1 - r.0) as u64;
    match method {
        ResolvedMethod::Length => SEARCH_PS + sink.unverified.len() as u64 * EMIT_PS,
        // A zero direction has no focus: the whole bucket is emitted.
        ResolvedMethod::Coord(_) | ResolvedMethod::Incr(_) if scratch.focus.is_empty() => {
            n * EMIT_PS
        }
        ResolvedMethod::Coord(_) => {
            let setup = scratch.focus.len() as u64 * FOCUS_PS;
            let smallest = scratch.ranges.iter().map(range_len).min().unwrap_or(0);
            if scratch.focus.len() == 1 {
                setup + smallest * EMIT_PS
            } else if smallest == 0 {
                setup // an empty range empties the candidate set unscanned
            } else {
                let scanned: u64 = scratch.ranges.iter().map(range_len).sum();
                setup + (scanned + smallest) * BUMP_PS
            }
        }
        ResolvedMethod::Incr(_) => {
            let scanned: u64 = scratch.ranges.iter().map(range_len).sum();
            scratch.focus.len() as u64 * FOCUS_PS
                + scanned * ACCUM_PS
                + scratch.ext.touched().len() as u64 * FILTER_PS
        }
        ResolvedMethod::Quant => {
            let q = bucket.indexes.quant.as_ref().expect("QUANT codes encoded");
            n * q.codebook().subspaces() as u64 * CODE_PS
        }
        ResolvedMethod::Ta | ResolvedMethod::Tree | ResolvedMethod::L2ap | ResolvedMethod::Blsh => {
            0
        }
    }
}

/// Selects `φ_b` (argmin summed price) and `t_b` (grid argmin of the mixed
/// price) from the price rows.
fn pick_params(rows: &[PriceRow], max_phi: usize, cfg: &RunConfig) -> TunedParams {
    if rows.is_empty() || max_phi == 0 {
        return TunedParams::default();
    }
    // φ_b: smallest total coordinate-method price.
    let mut best_phi = 1;
    let mut best_total = u128::MAX;
    for phi in 1..=max_phi {
        let total: u128 = rows.iter().map(|r| r.2[phi - 1] as u128).sum();
        if total < best_total {
            best_total = total;
            best_phi = phi;
        }
    }
    // t_b: grid argmin of the mixed price (only for hybrid variants; pure
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
                |&(th_b, p_len, p_phi)| {
                    if th_b < tb {
                        p_len as u128
                    } else {
                        p_phi[best_phi - 1] as u128
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
        let samples = sample_thresholds(&pb, &batch, &TuneGoal::TopK(5), 50);
        assert!(!samples.is_empty());
        for s in &samples {
            assert_eq!(s.len, 1.0);
            assert!(!s.entry.is_empty() && s.entry.iter().all(|t| t.is_finite()));
            assert!(s.entry.windows(2).all(|w| w[0] <= w[1]), "θ′ only grows");
        }
        // k past the probe count clamps to it, as in the drivers: every
        // probe is a seed, so θ′ is the smallest score on every bucket.
        for s in &sample_thresholds(&pb, &batch, &TuneGoal::TopK(10_000), 50) {
            let dir = batch.dirs.vector(s.qi);
            let scores = pb.buckets().iter().flat_map(|b| b.origs.iter());
            let least = scores.map(|p| lemp_linalg::kernels::dot(dir, p)).fold(f64::MAX, f64::min);
            assert!(!s.entry.is_empty());
            assert!(s.entry.iter().all(|&t| t == least));
        }
        // k = 0: the drivers run no sweep, so no bucket is reached.
        let none = sample_thresholds(&pb, &batch, &TuneGoal::TopK(0), 50);
        assert!(none.iter().all(|s| s.entry.is_empty()));
    }

    #[test]
    fn topk_samples_pose_the_thresholds_of_the_tuned_sweep() {
        let (mut pb, batch, _) = setup(600, 80, 1.0);
        let k = 5;
        // Pure INCR, so the reference sweep runs COORD/INCR, not LENGTH.
        let cfg = RunConfig { variant: LempVariant::I, ..Default::default() };
        let mut scratch = MethodScratch::new(runner::max_bucket_len(&pb));
        let mut clock = BuildClock::default();
        let tuning = tune(&mut pb, &batch, &TuneGoal::TopK(k), &cfg, &mut scratch, &mut clock);
        runner::prebuild_all(&mut pb, &cfg, &tuning.per_bucket, &mut clock);
        let samples = sample_thresholds(&pb, &batch, &TuneGoal::TopK(k), cfg.sample_size);
        let mut stopped_early = 0;
        let mut sink = Sink::default();
        for s in &samples {
            // Reference: the tuned sweep written out. Seed the k longest
            // probes, then run each bucket's tuned method until θ′ prunes
            // the next bucket, noting θ′ on entry to each.
            let dir = batch.dirs.vector(s.qi);
            let mut top = TopK::new(k);
            let mut seeds = Vec::new();
            seed_query(pb.buckets(), dir, k, &mut top, &mut seeds);
            let mut posed = Vec::new();
            for (b, bucket) in pb.buckets().iter().enumerate() {
                let theta = top.threshold();
                if local_threshold(theta, 1.0, bucket.max_len) > 1.0 + 1e-12 {
                    break;
                }
                posed.push(theta.to_bits());
                let th_b = region_threshold(theta, 1.0, bucket.max_len, bucket.min_len);
                let ctx = QueryCtx {
                    dir,
                    len: 1.0,
                    theta,
                    theta_over_len: theta,
                    local_threshold: th_b,
                    scaled: dir,
                };
                let method = resolve(cfg.variant, &tuning.per_bucket[b], th_b);
                assert_ne!(method, ResolvedMethod::Length);
                sink.clear();
                run_method(method, &ctx, bucket, None, &mut scratch, &mut sink);
                verify_topk(bucket, &ctx, &sink, seeds[b], &mut top);
            }
            let entry: Vec<u64> = s.entry.iter().map(|t| t.to_bits()).collect();
            assert_eq!(entry, posed, "sample at {}", s.qi);
            stopped_early += usize::from(posed.len() < pb.bucket_count());
        }
        assert!(stopped_early > 0, "some sweep must stop before the last bucket");
    }

    #[test]
    fn a_sample_prices_only_the_buckets_its_sweep_reaches() {
        let (mut pb, batch, _) = setup(600, 80, 1.0);
        let samples = sample_thresholds(&pb, &batch, &TuneGoal::TopK(5), 50);
        let mut scratch = MethodScratch::new(runner::max_bucket_len(&pb));
        let mut clock = BuildClock::default();
        let mut sink = Sink::default();
        let mut rows = Vec::new();
        let (mut partly, mut unreached) = (0, Vec::new());
        for b in 0..pb.bucket_count() {
            let reached = samples.iter().filter(|s| s.entry.len() > b).count();
            partly += usize::from(reached > 0 && reached < samples.len());
            if reached == 0 {
                unreached.push(b);
            }
            let bucket = &mut pb.buckets_mut()[b];
            ensure_sorted_lists(bucket, &mut clock);
            price_rows(&batch, &samples, b, bucket, true, &mut scratch, &mut sink, &mut rows);
            assert_eq!(rows.len(), reached, "bucket {b}");
        }
        assert!(partly > 0 && !unreached.is_empty(), "the fixture must prune");
        // A bucket no sample reaches keeps the defaults and is not indexed.
        let (mut fresh, _, _) = setup(600, 80, 1.0);
        let cfg = RunConfig { variant: LempVariant::LI, ..Default::default() };
        let tuning = tune(&mut fresh, &batch, &TuneGoal::TopK(5), &cfg, &mut scratch, &mut clock);
        for b in unreached {
            assert_eq!(tuning.per_bucket[b], TunedParams::default());
            assert!(fresh.buckets()[b].indexes.incr.is_none());
        }
    }

    #[test]
    fn counted_prices_follow_the_formula_on_the_fig4_bucket() {
        // The Fig. 4 bucket (lengths and directions of Fig. 4a) and the
        // query of Fig. 4d: ‖q‖ = 0.5, q̄ = (0.70, 0.3, 0.4, 0.51), θ = 0.9,
        // θ_b(q) = 0.9.
        let lens = [2.0, 1.9, 1.9, 1.8, 1.8, 1.8];
        let dirs = [
            [0.58, 0.50, 0.40, 0.50],
            [0.98, 0.00, 0.00, 0.20],
            [0.53, 0.00, 0.00, 0.85],
            [0.35, 0.93, 0.00, 0.10],
            [0.58, 0.50, 0.40, 0.50],
            [0.30, -0.40, 0.81, -0.30],
        ];
        let rows: Vec<Vec<f64>> =
            lens.iter().zip(dirs.iter()).map(|(&l, d)| d.iter().map(|x| x * l).collect()).collect();
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy = BucketPolicy { min_bucket: 6, length_ratio: 0.5, ..Default::default() };
        let mut pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 1);
        let mut clock = BuildClock::default();
        pb.ensure_quantized(8, &mut clock);
        ensure_sorted_lists(&mut pb.buckets_mut()[0], &mut clock);
        let bucket = &pb.buckets()[0];
        let dir = [0.70, 0.3, 0.4, 0.51];
        let ctx = QueryCtx {
            dir: &dir,
            len: 0.5,
            theta: 0.9,
            theta_over_len: 1.8,
            local_threshold: 0.9,
            scaled: &dir,
        };
        let verify = 4 * MAC_PS + CAND_PS;
        let mut scratch = MethodScratch::new(bucket.len());
        let mut sink = Sink::default();
        let mut priced = |m| price(m, &ctx, bucket, None, &mut scratch, &mut sink);
        // LENGTH: one search; θ/‖q‖ = 1.8 admits the rows of length 2.0
        // and 1.9 (Fig. 4a's directions are rounded, so the "1.8" rows
        // come out just below 1.8).
        assert_eq!(priced(ResolvedMethod::Length), SEARCH_PS + 3 * EMIT_PS + 3 * verify);
        // COORD(1): focus {q̄_1}; its feasible region [0.32, 0.94] holds
        // four of p̄_1 = (0.58, 0.98, 0.53, 0.35, 0.58, 0.30), all emitted.
        assert_eq!(priced(ResolvedMethod::Coord(1)), FOCUS_PS + 4 * EMIT_PS + 4 * verify);
        // COORD(2): focus {q̄_1, q̄_4}; [0.08, 0.83] holds four of
        // p̄_4 = (0.50, 0.20, 0.85, 0.10, 0.50, −0.30) too. Two scans, one
        // rescan of a smallest range, C_b = {1, 4, 5}.
        let coord2 = 2 * FOCUS_PS + (4 + 4 + 4) * BUMP_PS + 3 * verify;
        assert_eq!(priced(ResolvedMethod::Coord(2)), coord2);
        // INCR(2): the same eight entries touch vectors 1–5; Eq. 5 keeps
        // vector 1 alone (Fig. 4f).
        let incr2 = 2 * FOCUS_PS + 8 * ACCUM_PS + 5 * FILTER_PS + verify;
        assert_eq!(priced(ResolvedMethod::Incr(2)), incr2);
        // QUANT: six probes of one 4-d subspace scored, then its
        // candidates verified.
        let quant = priced(ResolvedMethod::Quant);
        let cands = sink.unverified.len() as u64;
        assert!(cands >= 1, "QUANT keeps the true result");
        assert_eq!(quant, 6 * CODE_PS + cands * verify);
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
