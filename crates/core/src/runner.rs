//! The LEMP retrieval drivers: Above-θ (Alg. 1) and Row-Top-k (Sec. 4.5).
//!
//! **Above-θ** iterates buckets in the outer loop and queries in the inner
//! loop ("the order of the two loops … is chosen to be cache friendly":
//! the small bucket stays cache-resident while the large query set streams
//! through). Queries are sorted by decreasing length, so the inner loop
//! *stops* at the first pruned query — all shorter queries have larger local
//! thresholds — and the outer loop stops at the first bucket every query
//! prunes — all later buckets hold shorter vectors.
//!
//! **Row-Top-k** processes one query at a time: it seeds the running bound
//! `θ′` with the k longest probes, then sweeps buckets in decreasing-length
//! order running the Above-θ′ machinery per bucket, tightening `θ′` from
//! the top-k heap after every bucket, and stops at the first pruned bucket.
//! `‖q‖` is fixed to 1 (the query's length does not affect its top-k set).
//!
//! Both drivers have a multi-threaded mode (an extension over the paper):
//! queries are independent, so the query set is partitioned across scoped
//! threads after indexes are built; counters and results are merged.

use std::time::Instant;

use lemp_baselines::types::{Entry, RetrievalCounters, TopKLists};
use lemp_linalg::{TopK, VectorStore};

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{MethodScratch, QueryCtx, Sink};
use crate::bounds::{local_threshold, region_threshold};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::{
    ensure_for, ensure_sorted_lists, run_method, seed_query, verify_above, verify_topk, BuildClock,
    RunConfig,
};
use crate::query::QueryBatch;
use crate::tuner::{self, TuneGoal, Tuning};
use crate::variant::{resolve, LempVariant, ResolvedMethod, TunedParams};

/// Phase breakdown and work counters of one LEMP run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall-clock phases and candidate counts (the paper's measurements).
    pub counters: RetrievalCounters,
    /// Number of probe buckets.
    pub bucket_count: usize,
    /// Indexes built lazily during this run (tuning + retrieval).
    pub indexes_built: u64,
    /// Which bucket method served how many (query, bucket) pairs — shows
    /// the Sec. 4.4 tuner's decisions (e.g. the LENGTH share of a LI run).
    pub method_mix: MethodMix,
}

impl RunStats {
    /// Merges another run's statistics into this one (chunked drivers
    /// accumulate per-chunk stats into one run-level summary).
    pub fn merge(&mut self, other: &RunStats) {
        self.counters.merge(&other.counters);
        self.bucket_count = self.bucket_count.max(other.bucket_count);
        self.indexes_built += other.indexes_built;
        self.method_mix.merge(&other.method_mix);
    }
}

/// Per-method (query, bucket)-pair counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodMix {
    /// Pairs served by LENGTH.
    pub length: u64,
    /// Pairs served by COORD.
    pub coord: u64,
    /// Pairs served by INCR.
    pub incr: u64,
    /// Pairs served by the TA adapter.
    pub ta: u64,
    /// Pairs served by the cover-tree adapter.
    pub tree: u64,
    /// Pairs served by the L2AP adapter.
    pub l2ap: u64,
    /// Pairs served by the BLSH adapter.
    pub blsh: u64,
    /// Pairs served by the quantized LUT scan.
    pub quant: u64,
}

impl MethodMix {
    pub(crate) fn record(&mut self, method: ResolvedMethod) {
        match method {
            ResolvedMethod::Length => self.length += 1,
            ResolvedMethod::Coord(_) => self.coord += 1,
            ResolvedMethod::Incr(_) => self.incr += 1,
            ResolvedMethod::Ta => self.ta += 1,
            ResolvedMethod::Tree => self.tree += 1,
            ResolvedMethod::L2ap => self.l2ap += 1,
            ResolvedMethod::Blsh => self.blsh += 1,
            ResolvedMethod::Quant => self.quant += 1,
        }
    }

    fn merge(&mut self, other: &MethodMix) {
        self.length += other.length;
        self.coord += other.coord;
        self.incr += other.incr;
        self.ta += other.ta;
        self.tree += other.tree;
        self.l2ap += other.l2ap;
        self.blsh += other.blsh;
        self.quant += other.quant;
    }

    /// Total pairs processed.
    pub fn total(&self) -> u64 {
        self.length
            + self.coord
            + self.incr
            + self.ta
            + self.tree
            + self.l2ap
            + self.blsh
            + self.quant
    }

    /// Fraction of pairs served by LENGTH (0 when nothing ran).
    pub fn length_share(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.length as f64 / t as f64
        }
    }
}

/// Result of an Above-θ run.
#[derive(Debug, Clone)]
pub struct AboveThetaOutput {
    /// All entries `[QᵀP]_{ij} ≥ θ` (order unspecified).
    pub entries: Vec<Entry>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Result of a Row-Top-k run.
#[derive(Debug, Clone)]
pub struct TopKOutput {
    /// Per query (by original index): the top-k probes, best first.
    pub lists: TopKLists,
    /// Run statistics.
    pub stats: RunStats,
}

/// `θ/‖q‖` with the degenerate-length convention of the bounds module.
pub(crate) fn theta_over_len(theta: f64, len: f64) -> f64 {
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

/// Number of queries (prefix of the sorted batch) whose local threshold for
/// a bucket with longest vector `lb` is ≤ 1.
pub(crate) fn unpruned_prefix(batch: &QueryBatch, theta: f64, lb: f64) -> usize {
    if lb <= 0.0 {
        // All-zero bucket: only meaningful when θ ≤ 0 (handled by caller).
        return if theta > 0.0 { 0 } else { batch.len() };
    }
    let cut = theta / lb;
    let cut = cut - 1e-12 * cut.abs(); // boundary slack: never prune an exact hit
    batch.lengths.partition_point(|&l| l >= cut)
}

/// The index the bucket must provide so every unpruned query of this run can
/// be served; `max_th_b` is the largest unpruned local threshold (the last
/// unpruned query's).
fn ensure_method(variant: LempVariant, tuned: &TunedParams, max_th_b: f64) -> ResolvedMethod {
    // For hybrids the coordinate method is needed iff some query reaches
    // θ_b ≥ t_b; `resolve` with the largest θ_b answers exactly that.
    resolve(variant, tuned, max_th_b)
}

pub(crate) fn make_blsh_table(cfg: &RunConfig) -> Option<MinMatchTable> {
    if cfg.variant == LempVariant::Blsh {
        Some(MinMatchTable::new(cfg.blsh_bits, cfg.blsh_eps))
    } else {
        None
    }
}

pub(crate) fn max_bucket_len(buckets: &ProbeBuckets) -> usize {
    buckets.buckets().iter().map(Bucket::len).max().unwrap_or(0)
}

/// Processes one bucket against a range `[q_lo, q_hi)` of the sorted query
/// batch (Above-θ inner loop). The bucket's index must already be built.
#[allow(clippy::too_many_arguments)]
fn process_bucket_above(
    bucket: &Bucket,
    batch: &QueryBatch,
    queries: &VectorStore,
    theta: f64,
    tol: &[f64],
    q_lo: usize,
    q_hi: usize,
    variant: LempVariant,
    tuned: &TunedParams,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) {
    scratch.ensure(bucket.len());
    // `qi` indexes four parallel per-query arrays; a range loop is clearer
    // than zipping them.
    #[allow(clippy::needless_range_loop)]
    for qi in q_lo..q_hi {
        let qlen = batch.lengths[qi];
        let th_b = region_threshold(theta, qlen, bucket.max_len, bucket.min_len);
        let method = resolve(variant, tuned, th_b);
        mix.record(method);
        let ctx = QueryCtx {
            dir: batch.dirs.vector(qi),
            len: qlen,
            theta,
            theta_over_len: tol[qi],
            local_threshold: th_b,
            scaled: queries.vector(batch.ids[qi] as usize),
        };
        sink.clear();
        let internal = run_method(method, &ctx, bucket, blsh_table, scratch, sink);
        let (vdots, results) = verify_above(bucket, &ctx, sink, batch.ids[qi], entries);
        counters.candidates += internal + vdots;
        counters.results += results;
    }
}

/// Emits the whole zero-length bucket for every query (only reachable when
/// `θ ≤ 0`: all inner products with a zero vector are 0 ≥ θ).
pub(crate) fn emit_zero_bucket(
    bucket: &Bucket,
    batch: &QueryBatch,
    q_lo: usize,
    q_hi: usize,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
) {
    for qi in q_lo..q_hi {
        for &pid in &bucket.ids {
            entries.push(Entry { query: batch.ids[qi], probe: pid, value: 0.0 });
            counters.results += 1;
        }
    }
}

/// Runs Above-θ over preprocessed buckets.
pub(crate) fn above_theta(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let blsh_table = make_blsh_table(cfg);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut clock = BuildClock::default();
    let tuning =
        tuner::tune(buckets, &batch, &TuneGoal::Above(theta), cfg, &mut scratch, &mut clock);
    let tune_build_ns = clock.ns;
    let tune_ns = tuning.tune_ns.saturating_sub(tune_build_ns);

    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };

    // Build whatever each reachable bucket needs, then process.
    let nbuckets = buckets.bucket_count();
    let mut reachable = 0usize;
    for b in 0..nbuckets {
        let bucket = &mut buckets.buckets_mut()[b];
        let unpruned = unpruned_prefix(&batch, theta, bucket.max_len);
        if unpruned == 0 {
            break; // later buckets are shorter: pruned for every query
        }
        reachable = b + 1;
        if bucket.max_len > 0.0 {
            let max_th_b = local_threshold(theta, batch.lengths[unpruned - 1], bucket.max_len);
            let method = ensure_method(cfg.variant, &tuning.per_bucket[b], max_th_b);
            let l2ap_t = local_threshold(theta, batch.max_len, bucket.max_len);
            ensure_for(bucket, method, l2ap_t, cfg, cfg_seed(cfg, b), &mut clock);
        }
    }
    let build_ns_retrieval = clock.ns - tune_build_ns;

    let mix = above_theta_body(
        buckets,
        &batch,
        queries,
        theta,
        &tol,
        reachable,
        cfg,
        &tuning.per_bucket,
        blsh_table.as_ref(),
        &mut scratch,
        &mut entries,
        &mut counters,
    );

    let retrieval_ns =
        (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(build_ns_retrieval);
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
    counters.tune_ns = tune_ns;
    counters.retrieval_ns = retrieval_ns;
    AboveThetaOutput {
        entries,
        stats: RunStats {
            counters,
            bucket_count: nbuckets,
            indexes_built: clock.built,
            method_mix: mix,
        },
    }
}

/// The retrieval phase of Above-θ over buckets whose indexes are already
/// built (serial with the caller's scratch, or partitioned across scoped
/// threads). Shared by the lazy `&mut` driver and the warmed `&self` path.
#[allow(clippy::too_many_arguments)]
fn above_theta_body(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    queries: &VectorStore,
    theta: f64,
    tol: &[f64],
    reachable: usize,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
) -> MethodMix {
    let mut mix = MethodMix::default();
    if cfg.threads <= 1 {
        let mut sink = Sink::default();
        for (bucket, params) in buckets.buckets()[..reachable].iter().zip(per_bucket) {
            let unpruned = unpruned_prefix(batch, theta, bucket.max_len);
            if bucket.max_len <= 0.0 {
                emit_zero_bucket(bucket, batch, 0, unpruned, entries, counters);
                continue;
            }
            process_bucket_above(
                bucket,
                batch,
                queries,
                theta,
                tol,
                0,
                unpruned,
                cfg.variant,
                params,
                blsh_table,
                scratch,
                &mut sink,
                entries,
                counters,
                &mut mix,
            );
        }
    } else {
        let nthreads = cfg.threads.min(batch.len().max(1));
        let chunk = batch.len().div_ceil(nthreads);
        let results: Vec<(Vec<Entry>, RetrievalCounters, MethodMix)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..nthreads)
                    .map(|t| {
                        scope.spawn(move || {
                            let lo = t * chunk;
                            let hi = ((t + 1) * chunk).min(batch.len());
                            let mut scratch = MethodScratch::new(max_bucket_len(buckets));
                            let mut sink = Sink::default();
                            let mut entries = Vec::new();
                            let mut counters = RetrievalCounters::default();
                            let mut local_mix = MethodMix::default();
                            for (bucket, params) in
                                buckets.buckets()[..reachable].iter().zip(per_bucket)
                            {
                                let unpruned = unpruned_prefix(batch, theta, bucket.max_len);
                                let hi_b = unpruned.min(hi);
                                if lo >= hi_b {
                                    continue;
                                }
                                if bucket.max_len <= 0.0 {
                                    emit_zero_bucket(
                                        bucket,
                                        batch,
                                        lo,
                                        hi_b,
                                        &mut entries,
                                        &mut counters,
                                    );
                                    continue;
                                }
                                process_bucket_above(
                                    bucket,
                                    batch,
                                    queries,
                                    theta,
                                    tol,
                                    lo,
                                    hi_b,
                                    cfg.variant,
                                    params,
                                    blsh_table,
                                    &mut scratch,
                                    &mut sink,
                                    &mut entries,
                                    &mut counters,
                                    &mut local_mix,
                                );
                            }
                            (entries, counters, local_mix)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });
        for (mut e, c, m) in results {
            entries.append(&mut e);
            counters.candidates += c.candidates;
            counters.results += c.results;
            mix.merge(&m);
        }
    }
    mix
}

/// Above-θ over a **warmed** engine: all reachable indexes are assumed
/// built and the tuned parameters are supplied by the caller, so the
/// buckets are only read — this is the `&self`-shareable hot path.
pub(crate) fn above_theta_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut reachable = 0usize;
    for (b, bucket) in buckets.buckets().iter().enumerate() {
        if unpruned_prefix(&batch, theta, bucket.max_len) == 0 {
            break;
        }
        reachable = b + 1;
    }
    let mix = above_theta_body(
        buckets,
        &batch,
        queries,
        theta,
        &tol,
        reachable,
        cfg,
        per_bucket,
        blsh_table,
        scratch,
        &mut entries,
        &mut counters,
    );
    counters.preprocess_ns = batch_prep_ns;
    counters.retrieval_ns = retrieval_start.elapsed().as_nanos() as u64;
    AboveThetaOutput {
        entries,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: 0,
            method_mix: mix,
        },
    }
}

/// Builds every index the bucket can need once warmed: the variant's method
/// at the largest reachable local threshold (1.0) plus both sorted-list
/// layouts (COORD and INCR, from one sort per coordinate), which the
/// adaptive arm menu draws from; a 1-d bucket gets COORD alone. The cache
/// budget already accounts for the two sorted-list layouts
/// ([`crate::BucketPolicy::max_bucket`]), so this stays within the paper's
/// cache model. QUANT codes are engine-wide ([`prebuild_all`]).
pub(crate) fn warm_bucket(
    bucket: &mut Bucket,
    params: &TunedParams,
    cfg: &RunConfig,
    bucket_seed: u64,
    clock: &mut BuildClock,
) {
    if bucket.max_len <= 0.0 {
        return;
    }
    if bucket.dirs.dim() > 1 {
        ensure_sorted_lists(bucket, clock);
    } else {
        let coord = ResolvedMethod::Coord(1);
        ensure_for(bucket, coord, cfg.l2ap_topk_threshold, cfg, bucket_seed, clock);
    }
    let method = ensure_method(cfg.variant, params, 1.0);
    ensure_for(bucket, method, cfg.l2ap_topk_threshold, cfg, bucket_seed, clock);
}

/// Warms every bucket (see [`warm_bucket`]); `per_bucket` must be aligned
/// with the bucket list. With quantization on, the engine's codebook trains
/// here if the tuner has not trained it, regardless of the tuner's
/// per-bucket picks, so reloads and plan refreshes never train on the query
/// path and `/stats` residency is observable right away.
pub(crate) fn prebuild_all(
    buckets: &mut ProbeBuckets,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    clock: &mut BuildClock,
) {
    buckets.ensure_quantized(cfg.quantize_bits, clock);
    for (b, (bucket, params)) in buckets.buckets_mut().iter_mut().zip(per_bucket).enumerate() {
        warm_bucket(bucket, params, cfg, cfg_seed(cfg, b), clock);
    }
}

pub(crate) fn cfg_seed(cfg: &RunConfig, bucket_idx: usize) -> u64 {
    // Distinct hyperplanes per bucket, stable across runs.
    0x1E4D_0000 ^ (bucket_idx as u64) ^ ((cfg.blsh_bits as u64) << 32)
}

/// Per-query score floor at the `‖q‖ = 1` scale of the Row-Top-k driver
/// (the driver ranks by `q̄ᵀp`; a floor on the true value `qᵀp` divides by
/// `‖q‖`), with the same boundary slack as bucket pruning so an exact hit
/// is never lost to rounding.
fn floor_scaled_for(floor: f64, qlen: f64) -> f64 {
    if floor == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let fl = theta_over_len(floor, qlen);
    if !fl.is_finite() {
        return fl;
    }
    fl - 1e-12 * fl.abs()
}

/// Whether the Row-Top-k sweep stops at `bucket` with running bound
/// `theta`: the bucket's local threshold exceeds 1 (with the same slack as
/// bucket pruning). `θ′` only grows and buckets only get shorter, so every
/// later bucket is pruned too.
pub(crate) fn sweep_stops(theta: f64, bucket: &Bucket) -> bool {
    local_threshold(theta, 1.0, bucket.max_len) > 1.0 + 1e-12
}

/// The query context the Row-Top-k sweep poses to `bucket` at running
/// bound `theta` (`‖q‖ = 1`, Sec. 4.5).
pub(crate) fn sweep_ctx<'a>(dir: &'a [f64], theta: f64, bucket: &Bucket) -> QueryCtx<'a> {
    QueryCtx {
        dir,
        len: 1.0,
        theta,
        theta_over_len: theta,
        local_threshold: region_threshold(theta, 1.0, bucket.max_len, bucket.min_len),
        scaled: dir,
    }
}

/// The bucket sweep of one Row-Top-k query, continuing from the heap
/// [`seed_query`] seeded with the k longest probes (Sec. 4.5): hands
/// `visit` each bucket in decreasing-length order with its index and the
/// running `θ′` on entry, raised to `floor_scaled` (Row-Top-k with a score
/// floor; `−∞` for the plain problem), and stops where [`sweep_stops`].
/// `visit` pushes the bucket's candidates into `top`. Shared by the query
/// drivers and the tuner's sample sweeps, so tuning sees the bounds the
/// drivers pose.
pub(crate) fn sweep_buckets(
    buckets: &[Bucket],
    floor_scaled: f64,
    top: &mut TopK,
    mut visit: impl FnMut(usize, &Bucket, f64, &mut TopK),
) {
    let mut theta = top.threshold().max(floor_scaled);
    for (b, bucket) in buckets.iter().enumerate() {
        if sweep_stops(theta, bucket) {
            break;
        }
        visit(b, bucket, theta, top);
        theta = top.threshold().max(floor_scaled);
    }
}

/// The bucket sweep of one Row-Top-k query over pre-built buckets (shared
/// by the serial and parallel drivers, see [`sweep_buckets`]). Returns the
/// top-k list (original probe ids).
#[allow(clippy::too_many_arguments)]
fn topk_sweep(
    buckets: &[Bucket],
    dir: &[f64],
    floor_scaled: f64,
    variant: LempVariant,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    top: &mut TopK,
    seed_counts: &[usize],
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) -> Vec<lemp_linalg::ScoredItem> {
    sweep_buckets(buckets, floor_scaled, top, |b, bucket, theta, top| {
        scratch.ensure(bucket.len());
        let ctx = sweep_ctx(dir, theta, bucket);
        let method = resolve(variant, &per_bucket[b], ctx.local_threshold);
        mix.record(method);
        sink.clear();
        let internal = run_method(method, &ctx, bucket, blsh_table, scratch, sink);
        let vdots = verify_topk(bucket, &ctx, sink, seed_counts[b], top);
        counters.candidates += internal + vdots;
    });
    top.drain_sorted()
}

/// Runs Row-Top-k over preprocessed buckets.
pub(crate) fn row_top_k(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    cfg: &RunConfig,
) -> TopKOutput {
    row_top_k_floor(buckets, queries, k, f64::NEG_INFINITY, cfg)
}

/// Row-Top-k restricted to entries with `qᵀp ≥ floor` (lists may come back
/// shorter than `k`). The floor feeds the running `θ′` from below, so it
/// *prunes* — high floors skip buckets entirely instead of filtering
/// afterwards. `floor = −∞` is exactly the plain Row-Top-k problem.
pub(crate) fn row_top_k_floor(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    // Clamp k to the live probe count: `k > n` returns every probe anyway,
    // and the clamp keeps a hostile k (say 10¹⁸) from sizing a heap.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let blsh_table = make_blsh_table(cfg);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut clock = BuildClock::default();
    let tuning = tuner::tune(buckets, &batch, &TuneGoal::TopK(k), cfg, &mut scratch, &mut clock);
    let tune_build_ns = clock.ns;
    let tune_ns = tuning.tune_ns.saturating_sub(tune_build_ns);

    let retrieval_start = Instant::now();
    let mut lists: TopKLists = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        if cfg.threads <= 1 {
            serial_topk(
                buckets,
                &batch,
                k,
                floor,
                cfg,
                &tuning,
                blsh_table.as_ref(),
                &mut scratch,
                &mut clock,
                &mut lists,
                &mut counters,
                &mut mix,
            );
        } else {
            // Parallel mode pre-builds every bucket's index (shared read
            // access), trading the lazy-construction saving for parallelism.
            for b in 0..buckets.bucket_count() {
                let bucket = &mut buckets.buckets_mut()[b];
                if bucket.max_len <= 0.0 {
                    continue;
                }
                let method = ensure_method(cfg.variant, &tuning.per_bucket[b], 1.0);
                ensure_for(
                    bucket,
                    method,
                    cfg.l2ap_topk_threshold,
                    cfg,
                    cfg_seed(cfg, b),
                    &mut clock,
                );
            }
            parallel_topk(
                buckets,
                &batch,
                k,
                floor,
                cfg,
                &tuning.per_bucket,
                blsh_table.as_ref(),
                &mut lists,
                &mut counters,
                &mut mix,
            );
        }
    }

    let build_ns_retrieval = clock.ns - tune_build_ns;
    let retrieval_ns =
        (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(build_ns_retrieval);
    counters.results = lists.iter().map(|l| l.len() as u64).sum();
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
    counters.tune_ns = tune_ns;
    counters.retrieval_ns = retrieval_ns;
    TopKOutput {
        lists,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: clock.built,
            method_mix: mix,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn serial_topk(
    buckets: &mut ProbeBuckets,
    batch: &QueryBatch,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
    tuning: &Tuning,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    clock: &mut BuildClock,
    lists: &mut TopKLists,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) {
    let mut sink = Sink::default();
    let mut top = TopK::new(k);
    let mut seed_counts: Vec<usize> = Vec::new();
    // Lazy index construction: after seeding each query, make sure the
    // buckets its sweep *may* reach are indexed. θ′ after seeding can only
    // grow, so a bucket pruned at seed time stays pruned.
    for qi in 0..batch.len() {
        let dir = batch.dirs.vector(qi);
        let floor_scaled = floor_scaled_for(floor, batch.lengths[qi]);
        counters.candidates += seed_query(buckets.buckets(), dir, k, &mut top, &mut seed_counts);
        let theta_seed = top.threshold().max(floor_scaled);
        for b in 0..buckets.bucket_count() {
            let bucket = &mut buckets.buckets_mut()[b];
            if bucket.max_len <= 0.0 {
                continue;
            }
            if sweep_stops(theta_seed, bucket) {
                break;
            }
            // θ′ grows while the query sweeps buckets, so the local
            // threshold seen at run time may exceed the seed-time value;
            // prepare for the largest one (1.0) the sweep can pose.
            let method = ensure_method(cfg.variant, &tuning.per_bucket[b], 1.0);
            ensure_for(bucket, method, cfg.l2ap_topk_threshold, cfg, cfg_seed(cfg, b), clock);
        }
        let list = topk_sweep(
            buckets.buckets(),
            dir,
            floor_scaled,
            cfg.variant,
            &tuning.per_bucket,
            blsh_table,
            scratch,
            &mut sink,
            &mut top,
            &seed_counts,
            counters,
            mix,
        );
        lists[batch.ids[qi] as usize] = finish_list(list, batch.lengths[qi], floor);
    }
}

/// Scales a swept list back to true inner products and applies the floor.
fn finish_list(
    mut list: Vec<lemp_linalg::ScoredItem>,
    qlen: f64,
    floor: f64,
) -> Vec<lemp_linalg::ScoredItem> {
    // The driver works with ‖q‖ = 1 (Sec. 4.5); report true inner
    // products by scaling back (the ranking is scale-invariant).
    for item in &mut list {
        item.score *= qlen;
    }
    if floor > f64::NEG_INFINITY {
        // The heap may still hold below-floor warm-up seeds; the API
        // guarantees every reported value is ≥ floor.
        list.retain(|item| item.score >= floor);
    }
    list
}

/// Runs the queries `[lo, hi)` of the sorted batch over pre-built buckets,
/// handing each finished list (with its original query id) to `emit`.
/// Shared by the serial driver, the parallel workers, and the warmed
/// `&self` path.
#[allow(clippy::too_many_arguments)]
fn topk_range<F: FnMut(u32, Vec<lemp_linalg::ScoredItem>)>(
    buckets: &[Bucket],
    batch: &QueryBatch,
    lo: usize,
    hi: usize,
    k: usize,
    floor: f64,
    variant: LempVariant,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    top: &mut TopK,
    seed_counts: &mut Vec<usize>,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
    mut emit: F,
) {
    for qi in lo..hi {
        let dir = batch.dirs.vector(qi);
        counters.candidates += seed_query(buckets, dir, k, top, seed_counts);
        let list = topk_sweep(
            buckets,
            dir,
            floor_scaled_for(floor, batch.lengths[qi]),
            variant,
            per_bucket,
            blsh_table,
            scratch,
            sink,
            top,
            seed_counts,
            counters,
            mix,
        );
        emit(batch.ids[qi], finish_list(list, batch.lengths[qi], floor));
    }
}

/// Row-Top-k (with optional floor) over a **warmed** engine: every bucket's
/// index is assumed built, so the buckets are only read — the
/// `&self`-shareable hot path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_top_k_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    // Same clamp as the lazy driver: non-panicking for any k.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut lists: TopKLists = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        if cfg.threads <= 1 {
            let mut sink = Sink::default();
            let mut top = TopK::new(k);
            let mut seed_counts: Vec<usize> = Vec::new();
            topk_range(
                buckets.buckets(),
                &batch,
                0,
                batch.len(),
                k,
                floor,
                cfg.variant,
                per_bucket,
                blsh_table,
                scratch,
                &mut sink,
                &mut top,
                &mut seed_counts,
                &mut counters,
                &mut mix,
                |qid, list| lists[qid as usize] = list,
            );
        } else {
            parallel_topk(
                buckets,
                &batch,
                k,
                floor,
                cfg,
                per_bucket,
                blsh_table,
                &mut lists,
                &mut counters,
                &mut mix,
            );
        }
    }

    counters.results = lists.iter().map(|l| l.len() as u64).sum();
    counters.preprocess_ns = batch_prep_ns;
    counters.retrieval_ns = retrieval_start.elapsed().as_nanos() as u64;
    TopKOutput {
        lists,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: 0,
            method_mix: mix,
        },
    }
}

/// One worker's output: `(query id, top-k list)` pairs plus its counters.
type WorkerTopK = (Vec<(u32, Vec<lemp_linalg::ScoredItem>)>, RetrievalCounters, MethodMix);

#[allow(clippy::too_many_arguments)]
fn parallel_topk(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    lists: &mut TopKLists,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) {
    let nthreads = cfg.threads.min(batch.len().max(1));
    let chunk = batch.len().div_ceil(nthreads);
    let results: Vec<WorkerTopK> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                scope.spawn(move || {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(batch.len());
                    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
                    let mut sink = Sink::default();
                    let mut top = TopK::new(k);
                    let mut seed_counts = Vec::new();
                    let mut local_counters = RetrievalCounters::default();
                    let mut local_mix = MethodMix::default();
                    let mut out = Vec::with_capacity(hi.saturating_sub(lo));
                    topk_range(
                        buckets.buckets(),
                        batch,
                        lo,
                        hi,
                        k,
                        floor,
                        cfg.variant,
                        per_bucket,
                        blsh_table,
                        &mut scratch,
                        &mut sink,
                        &mut top,
                        &mut seed_counts,
                        &mut local_counters,
                        &mut local_mix,
                        |qid, list| out.push((qid, list)),
                    );
                    (out, local_counters, local_mix)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for (chunk_lists, c, m) in results {
        for (qid, list) in chunk_lists {
            lists[qid as usize] = list;
        }
        counters.candidates += c.candidates;
        mix.merge(&m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_data::synthetic::GeneratorConfig;

    #[test]
    fn floor_scaling_handles_degenerate_lengths() {
        // Plain Row-Top-k sentinel passes through untouched.
        assert_eq!(floor_scaled_for(f64::NEG_INFINITY, 2.0), f64::NEG_INFINITY);
        assert_eq!(floor_scaled_for(f64::NEG_INFINITY, 0.0), f64::NEG_INFINITY);
        // A positive floor for a zero-length query is unreachable.
        assert_eq!(floor_scaled_for(1.0, 0.0), f64::INFINITY);
        // A non-positive floor for a zero-length query admits everything.
        assert_eq!(floor_scaled_for(-1.0, 0.0), f64::NEG_INFINITY);
        // Finite case: floor/len, slacked strictly downward.
        let fl = floor_scaled_for(3.0, 2.0);
        assert!(fl < 1.5 && fl > 1.5 - 1e-10);
        // Negative finite floors slack downward too (never upward).
        let fl = floor_scaled_for(-3.0, 2.0);
        assert!(fl < -1.5 && fl > -1.5 - 1e-10);
    }

    #[test]
    fn unpruned_prefix_respects_sorted_lengths() {
        let store = GeneratorConfig::gaussian(50, 6, 1.0).generate(77);
        let batch = QueryBatch::build(&store);
        // Lengths are sorted decreasing; the prefix must be monotone in lb.
        let a = unpruned_prefix(&batch, 1.0, 0.5);
        let b = unpruned_prefix(&batch, 1.0, 1.0);
        assert!(b >= a, "longer buckets admit at least as many queries");
        // Every admitted query really satisfies θ_b ≤ 1 (with slack).
        for qi in 0..b {
            assert!(batch.lengths[qi] * 1.0 >= 1.0 - 1e-9);
        }
        // θ ≤ 0 with a zero-length bucket admits everything.
        assert_eq!(unpruned_prefix(&batch, -0.1, 0.0), batch.len());
        assert_eq!(unpruned_prefix(&batch, 0.1, 0.0), 0);
    }

    #[test]
    fn theta_over_len_degenerate_conventions() {
        assert_eq!(theta_over_len(1.0, 0.0), f64::INFINITY);
        assert_eq!(theta_over_len(-1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(theta_over_len(0.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(theta_over_len(3.0, 2.0), 1.5);
    }
}
