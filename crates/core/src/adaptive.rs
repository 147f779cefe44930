//! Adaptive (bandit) algorithm selection — the paper's Sec. 4.4 outlook.
//!
//! "More elaborate approaches for algorithm selection are possible, e.g.,
//! some form of reinforcement learning. Our experiments suggest, however,
//! that even the simple selection criterion outlined above gives promising
//! results." This module implements that outlook so the two approaches can
//! be compared (see the `repro-ablation-adaptive` binary).
//!
//! # How it learns
//!
//! The sample-based tuner of Sec. 4.4 measures a handful of queries up
//! front and then *fixes* `t_b` and `φ_b` per bucket. The adaptive driver
//! instead treats every (bucket, local-threshold-bin) pair as a small
//! **multi-armed bandit**:
//!
//! * the *arms* are the bucket methods — LENGTH, plus COORD/INCR with
//!   focus-set size `φ ∈ 1..=max_phi` (the same menu the tuner considers);
//! * the *context* is the local threshold `θ_b(q)`, discretized into a few
//!   bins — this is what lets the bandit learn a `t_b`-style switch point
//!   instead of one global winner per bucket;
//! * the *cost* of a pull is the measured wall-clock of running the arm
//!   **including verification** of the candidates it produced (candidate
//!   counts are exactly what differentiates the methods, as in the tuner).
//!
//! Two classic policies are provided: **UCB1** (deterministic
//! optimism-under-uncertainty with a tunable exploration weight) and
//! **ε-greedy** (seeded, explores a fixed fraction of pulls forever).
//!
//! # Exactness
//!
//! Every arm is an exact retrieval method, so the produced result set is
//! identical to any other exact LEMP configuration *no matter what the
//! bandit does* — learning only moves time around. This invariant is what
//! makes online exploration safe in production: a bad pull is slow, never
//! wrong.

use std::time::Instant;

use lemp_baselines::types::{Entry, RetrievalCounters};
use lemp_linalg::{TopK, VectorStore};

use crate::algos::{MethodScratch, QueryCtx, Sink};
use crate::bounds::{local_threshold, region_threshold};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::{
    ensure_for, ensure_sorted_lists, run_method, seed_query, verify_above, verify_topk, BuildClock,
    RunConfig,
};
use crate::query::QueryBatch;
use crate::runner::{
    emit_zero_bucket, max_bucket_len, theta_over_len, unpruned_prefix, AboveThetaOutput, MethodMix,
    RunStats, TopKOutput,
};
use crate::tuner;
use crate::variant::ResolvedMethod;

/// Bandit policy for arm selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// UCB1: pull each arm once, then pick the arm minimizing
    /// `mean_cost − c·scale·√(2·ln N / n)` where `scale` is the running
    /// mean cost of all arms (keeps the bonus in cost units).
    Ucb1 {
        /// Exploration weight; 0 = pure exploitation after warm-up.
        c: f64,
    },
    /// ε-greedy: with probability ε pick a uniformly random arm, otherwise
    /// the arm with the smallest mean cost. Deterministically seeded.
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
        /// RNG seed (explicit, like every random choice in this workspace).
        seed: u64,
    },
}

/// Configuration of the adaptive driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Arm-selection policy.
    pub policy: BanditPolicy,
    /// Number of `θ_b(q)` bins per bucket (the discretized context). More
    /// bins learn a finer `t_b`-style switch but need more pulls per bin.
    pub theta_bins: usize,
    /// Largest focus-set size offered as an arm (the tuner's `MAX_PHI`).
    pub max_phi: usize,
    /// Coordinate arms use INCR when `true` (LI-flavored), COORD otherwise
    /// (LC-flavored). `φ = 1` always runs COORD (Appendix A).
    pub use_incr: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            policy: BanditPolicy::Ucb1 { c: 1.0 },
            theta_bins: 4,
            max_phi: tuner::MAX_PHI,
            use_incr: true,
        }
    }
}

/// SplitMix64 — the workspace's standard tiny seeded generator, reproduced
/// here to keep `lemp-core` free of runtime dependencies.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (n > 0).
    fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Running statistics of one arm in one (bucket, bin) bandit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArmStats {
    /// Times this arm was pulled.
    pub pulls: u64,
    /// Total cost over all pulls, nanoseconds.
    pub total_ns: u64,
}

impl ArmStats {
    /// Mean cost per pull (∞ for an unpulled arm, so it sorts last in
    /// exploitation and first in warm-up logic).
    pub fn mean_ns(&self) -> f64 {
        if self.pulls == 0 {
            f64::INFINITY
        } else {
            self.total_ns as f64 / self.pulls as f64
        }
    }
}

/// One (bucket, θ_b-bin) bandit.
#[derive(Debug, Clone, Default)]
struct BanditState {
    arms: Vec<ArmStats>,
    total_pulls: u64,
    total_ns: u64,
}

impl BanditState {
    fn new(arms: usize) -> Self {
        Self { arms: vec![ArmStats::default(); arms], total_pulls: 0, total_ns: 0 }
    }

    /// First unpulled arm, if any (warm-up phase of both policies).
    fn unpulled(&self) -> Option<usize> {
        self.arms.iter().position(|a| a.pulls == 0)
    }

    fn exploit(&self) -> usize {
        let mut best = 0;
        let mut best_mean = f64::INFINITY;
        for (i, a) in self.arms.iter().enumerate() {
            let m = a.mean_ns();
            if m < best_mean {
                best_mean = m;
                best = i;
            }
        }
        best
    }

    fn ucb1(&self, c: f64) -> usize {
        if let Some(a) = self.unpulled() {
            return a;
        }
        // Cost-flavored UCB1: subtract the exploration bonus from the mean
        // cost. `scale` keeps the bonus in the same units as the costs.
        let scale = self.total_ns as f64 / self.total_pulls as f64;
        let ln_n = (self.total_pulls as f64).ln();
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, a) in self.arms.iter().enumerate() {
            let bonus = c * scale * (2.0 * ln_n / a.pulls as f64).sqrt();
            let score = a.mean_ns() - bonus;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

/// The online selector: one bandit per (bucket, θ_b bin).
#[derive(Debug)]
pub struct AdaptiveSelector {
    cfg: AdaptiveConfig,
    bins: usize,
    arms: usize,
    states: Vec<BanditState>,
    rng: SplitMix64,
}

impl AdaptiveSelector {
    /// Selector for `nbuckets` buckets over vectors of dimensionality `dim`
    /// (caps `max_phi` at `dim`: a focus set cannot exceed the coordinate
    /// count).
    pub fn new(cfg: AdaptiveConfig, nbuckets: usize, dim: usize) -> Self {
        let bins = cfg.theta_bins.max(1);
        let arms = 1 + cfg.max_phi.clamp(1, dim.max(1));
        let seed = match cfg.policy {
            BanditPolicy::EpsilonGreedy { seed, .. } => seed,
            BanditPolicy::Ucb1 { .. } => 0,
        };
        Self {
            cfg,
            bins,
            arms,
            states: vec![BanditState::new(arms); nbuckets * bins],
            rng: SplitMix64(seed),
        }
    }

    /// Number of arms per bandit (1 + effective `max_phi`).
    pub fn arm_count(&self) -> usize {
        self.arms
    }

    /// Number of buckets this selector was sized for.
    pub fn bucket_count(&self) -> usize {
        self.states.len().checked_div(self.bins).unwrap_or(0)
    }

    /// Total pulls across all bandits so far (grows across runs when the
    /// selector is reused via the `*_with` drivers).
    pub fn total_pulls(&self) -> u64 {
        self.states.iter().map(|s| s.total_pulls).sum()
    }

    /// Maps a local threshold to its context bin. `θ_b` below 0 (negative
    /// thresholds from early Row-Top-k sweeps) lands in bin 0; values at or
    /// above 1 would have pruned the bucket, so the top bin ends at 1.
    pub fn bin(&self, theta_b: f64) -> usize {
        if !theta_b.is_finite() || theta_b <= 0.0 {
            return 0;
        }
        ((theta_b * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// Picks an arm for the (bucket, bin) bandit.
    pub fn choose(&mut self, bucket: usize, bin: usize) -> usize {
        let state = &self.states[bucket * self.bins + bin];
        match self.cfg.policy {
            BanditPolicy::Ucb1 { c } => state.ucb1(c),
            BanditPolicy::EpsilonGreedy { epsilon, .. } => {
                if let Some(a) = state.unpulled() {
                    a
                } else if self.rng.next_f64() < epsilon {
                    self.rng.next_below(self.arms)
                } else {
                    state.exploit()
                }
            }
        }
    }

    /// Feeds back the observed cost of a pull.
    pub fn record(&mut self, bucket: usize, bin: usize, arm: usize, cost_ns: u64) {
        let state = &mut self.states[bucket * self.bins + bin];
        state.arms[arm].pulls += 1;
        state.arms[arm].total_ns += cost_ns;
        state.total_pulls += 1;
        state.total_ns += cost_ns;
    }

    /// Translates an arm index into the method it runs. Arm 0 is LENGTH;
    /// arm `a ≥ 1` is the coordinate method with `φ = a` (COORD when
    /// `φ = 1` even in INCR flavor — Appendix A: identical candidates,
    /// cheaper scan).
    pub(crate) fn method(&self, arm: usize) -> ResolvedMethod {
        if arm == 0 {
            ResolvedMethod::Length
        } else if self.cfg.use_incr && arm > 1 {
            ResolvedMethod::Incr(arm)
        } else {
            ResolvedMethod::Coord(arm)
        }
    }

    /// Human-readable arm label (for reports).
    pub fn arm_name(&self, arm: usize) -> String {
        match self.method(arm) {
            ResolvedMethod::Length => "LENGTH".to_string(),
            ResolvedMethod::Coord(phi) => format!("COORD(φ={phi})"),
            ResolvedMethod::Incr(phi) => format!("INCR(φ={phi})"),
            other => format!("{other:?}"), // unreachable for bandit arms
        }
    }

    /// Snapshot of everything the selector learned.
    pub fn report(&self) -> AdaptiveReport {
        let nbuckets = self.states.len().checked_div(self.bins).unwrap_or(0);
        let mut buckets = Vec::with_capacity(nbuckets);
        for b in 0..nbuckets {
            let mut bins = Vec::with_capacity(self.bins);
            for bin in 0..self.bins {
                let state = &self.states[b * self.bins + bin];
                let lo = bin as f64 / self.bins as f64;
                let hi = (bin + 1) as f64 / self.bins as f64;
                let best_arm = if state.total_pulls == 0 { None } else { Some(state.exploit()) };
                bins.push(BinReport { lo, hi, arms: state.arms.clone(), best_arm });
            }
            buckets.push(bins);
        }
        AdaptiveReport { buckets, arm_names: (0..self.arms).map(|a| self.arm_name(a)).collect() }
    }
}

/// Per-bin learning summary: the θ_b range it covers, per-arm statistics,
/// and the arm the bandit would exploit now.
#[derive(Debug, Clone)]
pub struct BinReport {
    /// Bin lower edge (θ_b scale).
    pub lo: f64,
    /// Bin upper edge.
    pub hi: f64,
    /// Per-arm pulls and total cost, aligned with
    /// [`AdaptiveReport::arm_names`].
    pub arms: Vec<ArmStats>,
    /// Current exploitation choice; `None` if the bin never saw a pair.
    pub best_arm: Option<usize>,
}

/// What the adaptive run learned, per bucket and θ_b bin.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// `buckets[b][bin]` — learning state of that bandit.
    pub buckets: Vec<Vec<BinReport>>,
    /// Arm labels, index-aligned with every [`BinReport::arms`].
    pub arm_names: Vec<String>,
}

impl AdaptiveReport {
    /// Total pulls across all bandits (= (query, bucket) pairs served).
    pub fn total_pulls(&self) -> u64 {
        self.buckets.iter().flatten().flat_map(|bin| bin.arms.iter()).map(|a| a.pulls).sum()
    }
}

/// Builds the indexes every arm may need for one bucket (both coordinate
/// layouts; LENGTH needs none). The bandit warm-up pulls every arm at least
/// once, so this is not speculative work.
fn ensure_arm_indexes(
    bucket: &mut Bucket,
    selector: &AdaptiveSelector,
    cfg: &RunConfig,
    clock: &mut BuildClock,
) {
    if selector.cfg.use_incr && selector.arm_count() > 2 {
        ensure_sorted_lists(bucket, clock);
    } else {
        ensure_for(bucket, ResolvedMethod::Coord(1), 1.0, cfg, 0, clock);
    }
}

/// Above-θ with online bandit selection (serial; learning state is shared
/// across the whole sweep). Constructs a fresh selector and returns its
/// report; use [`above_theta_adaptive_with`] to keep learning warm across
/// runs.
pub(crate) fn above_theta_adaptive(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
    acfg: &AdaptiveConfig,
) -> (AboveThetaOutput, AdaptiveReport) {
    let mut selector = AdaptiveSelector::new(*acfg, buckets.bucket_count(), buckets.dim());
    let out = above_theta_adaptive_with(buckets, queries, theta, cfg, &mut selector);
    let report = selector.report();
    (out, report)
}

/// [`above_theta_adaptive`] with caller-owned learning state: the selector
/// keeps its arm statistics across calls, so a long-lived service warms up
/// once and exploits thereafter.
///
/// # Panics
/// If the selector was sized for a different bucketization (caller bug).
pub(crate) fn above_theta_adaptive_with(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
    selector: &mut AdaptiveSelector,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    assert_eq!(
        selector.bucket_count(),
        buckets.bucket_count(),
        "selector sized for a different bucketization"
    );
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut clock = BuildClock::default();
    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut sink = Sink::default();

    let nbuckets = buckets.bucket_count();
    for b in 0..nbuckets {
        let bucket = &mut buckets.buckets_mut()[b];
        let unpruned = unpruned_prefix(&batch, theta, bucket.max_len);
        if unpruned == 0 {
            break; // later buckets are shorter: pruned for every query
        }
        if bucket.max_len <= 0.0 {
            emit_zero_bucket(bucket, &batch, 0, unpruned, &mut entries, &mut counters);
            continue;
        }
        ensure_arm_indexes(bucket, selector, cfg, &mut clock);
        let bucket = &buckets.buckets()[b];
        adaptive_above_bucket(
            b,
            bucket,
            &batch,
            queries,
            theta,
            &tol,
            unpruned,
            selector,
            &mut scratch,
            &mut sink,
            &mut entries,
            &mut counters,
            &mut mix,
        );
    }

    let retrieval_ns = (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(clock.ns);
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
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

/// One bucket's Above-θ sweep with bandit arm choices (indexes already
/// built). Shared by the lazy `&mut` driver and the warmed `&self` path.
#[allow(clippy::too_many_arguments)]
fn adaptive_above_bucket(
    b: usize,
    bucket: &Bucket,
    batch: &QueryBatch,
    queries: &VectorStore,
    theta: f64,
    tol: &[f64],
    unpruned: usize,
    selector: &mut AdaptiveSelector,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) {
    scratch.ensure(bucket.len());
    #[allow(clippy::needless_range_loop)] // qi indexes parallel arrays
    for qi in 0..unpruned {
        let qlen = batch.lengths[qi];
        let th_b = region_threshold(theta, qlen, bucket.max_len, bucket.min_len);
        let bin = selector.bin(local_threshold(theta, qlen, bucket.max_len));
        let arm = selector.choose(b, bin);
        let method = selector.method(arm);
        mix.record(method);
        let ctx = QueryCtx {
            dir: batch.dirs.vector(qi),
            len: qlen,
            theta,
            theta_over_len: tol[qi],
            local_threshold: th_b,
            scaled: queries.vector(batch.ids[qi] as usize),
        };
        let pull_start = Instant::now();
        sink.clear();
        let internal = run_method(method, &ctx, bucket, None, scratch, sink);
        let (vdots, results) = verify_above(bucket, &ctx, sink, batch.ids[qi], entries);
        selector.record(b, bin, arm, pull_start.elapsed().as_nanos() as u64);
        counters.candidates += internal + vdots;
        counters.results += results;
    }
}

/// [`above_theta_adaptive_with`] over a **warmed** engine: both sorted-list
/// layouts exist in every bucket, so the buckets are only read — the
/// `&self`-shareable adaptive path (the learning state lives in the
/// caller's selector).
pub(crate) fn above_theta_adaptive_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    selector: &mut AdaptiveSelector,
    scratch: &mut MethodScratch,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    assert_eq!(
        selector.bucket_count(),
        buckets.bucket_count(),
        "selector sized for a different bucketization"
    );
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let mut sink = Sink::default();

    for (b, bucket) in buckets.buckets().iter().enumerate() {
        let unpruned = unpruned_prefix(&batch, theta, bucket.max_len);
        if unpruned == 0 {
            break; // later buckets are shorter: pruned for every query
        }
        if bucket.max_len <= 0.0 {
            emit_zero_bucket(bucket, &batch, 0, unpruned, &mut entries, &mut counters);
            continue;
        }
        adaptive_above_bucket(
            b,
            bucket,
            &batch,
            queries,
            theta,
            &tol,
            unpruned,
            selector,
            scratch,
            &mut sink,
            &mut entries,
            &mut counters,
            &mut mix,
        );
    }

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

/// Row-Top-k with online bandit selection (serial). Constructs a fresh
/// selector and returns its report; use [`row_top_k_adaptive_with`] to
/// keep learning warm across runs.
pub(crate) fn row_top_k_adaptive(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    cfg: &RunConfig,
    acfg: &AdaptiveConfig,
) -> (TopKOutput, AdaptiveReport) {
    let mut selector = AdaptiveSelector::new(*acfg, buckets.bucket_count(), buckets.dim());
    let out = row_top_k_adaptive_with(buckets, queries, k, cfg, &mut selector);
    let report = selector.report();
    (out, report)
}

/// [`row_top_k_adaptive`] with caller-owned learning state.
///
/// # Panics
/// If the selector was sized for a different bucketization (caller bug).
pub(crate) fn row_top_k_adaptive_with(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    cfg: &RunConfig,
    selector: &mut AdaptiveSelector,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    assert_eq!(
        selector.bucket_count(),
        buckets.bucket_count(),
        "selector sized for a different bucketization"
    );
    // Clamp k to the live probe count, like every Row-Top-k driver.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut clock = BuildClock::default();
    let retrieval_start = Instant::now();
    let mut lists: Vec<Vec<lemp_linalg::ScoredItem>> = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut sink = Sink::default();
    let mut top = TopK::new(k);
    let mut seed_counts: Vec<usize> = Vec::new();

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        for qi in 0..batch.len() {
            let dir = batch.dirs.vector(qi);
            // Lazy index construction, as in the serial tuned driver: θ′
            // only grows after seeding, so a bucket pruned now stays pruned.
            counters.candidates +=
                seed_query(buckets.buckets(), dir, k, &mut top, &mut seed_counts);
            let theta_seed = top.threshold();
            for b in 0..buckets.bucket_count() {
                let bucket = &mut buckets.buckets_mut()[b];
                if bucket.max_len <= 0.0 {
                    continue;
                }
                if local_threshold(theta_seed, 1.0, bucket.max_len) > 1.0 + 1e-12 {
                    break;
                }
                ensure_arm_indexes(bucket, selector, cfg, &mut clock);
            }
            // The sweep itself (Sec. 4.5 driver with bandit arm choices).
            let mut list = adaptive_topk_sweep(
                buckets.buckets(),
                dir,
                selector,
                &mut scratch,
                &mut sink,
                &mut top,
                &seed_counts,
                &mut counters,
                &mut mix,
            );
            for item in &mut list {
                item.score *= batch.lengths[qi];
            }
            lists[batch.ids[qi] as usize] = list;
        }
    }

    let retrieval_ns = (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(clock.ns);
    counters.results = lists.iter().map(|l| l.len() as u64).sum();
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
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

/// The bucket sweep of one Row-Top-k query with bandit arm choices over
/// pre-built buckets (Sec. 4.5 driver), continuing from the heap
/// [`seed_query`] seeded. Returns the top-k list at the `‖q‖ = 1` scale.
#[allow(clippy::too_many_arguments)]
fn adaptive_topk_sweep(
    buckets: &[Bucket],
    dir: &[f64],
    selector: &mut AdaptiveSelector,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    top: &mut TopK,
    seed_counts: &[usize],
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) -> Vec<lemp_linalg::ScoredItem> {
    let mut theta = top.threshold();
    for (b, bucket) in buckets.iter().enumerate() {
        if local_threshold(theta, 1.0, bucket.max_len) > 1.0 + 1e-12 {
            break;
        }
        if bucket.max_len <= 0.0 {
            continue;
        }
        scratch.ensure(bucket.len());
        let th_b = region_threshold(theta, 1.0, bucket.max_len, bucket.min_len);
        let bin = selector.bin(local_threshold(theta, 1.0, bucket.max_len));
        let arm = selector.choose(b, bin);
        let method = selector.method(arm);
        mix.record(method);
        let ctx = QueryCtx {
            dir,
            len: 1.0,
            theta,
            theta_over_len: theta,
            local_threshold: th_b,
            scaled: dir,
        };
        let pull_start = Instant::now();
        sink.clear();
        let internal = run_method(method, &ctx, bucket, None, scratch, sink);
        let vdots = verify_topk(bucket, &ctx, sink, seed_counts[b], top);
        selector.record(b, bin, arm, pull_start.elapsed().as_nanos() as u64);
        counters.candidates += internal + vdots;
        theta = top.threshold();
    }
    top.drain_sorted()
}

/// [`row_top_k_adaptive_with`] over a **warmed** engine (see
/// [`above_theta_adaptive_prepared`]).
pub(crate) fn row_top_k_adaptive_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    selector: &mut AdaptiveSelector,
    scratch: &mut MethodScratch,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    assert_eq!(
        selector.bucket_count(),
        buckets.bucket_count(),
        "selector sized for a different bucketization"
    );
    // Clamp k to the live probe count, like every Row-Top-k driver.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut lists: Vec<Vec<lemp_linalg::ScoredItem>> = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let mut sink = Sink::default();
    let mut top = TopK::new(k);
    let mut seed_counts: Vec<usize> = Vec::new();

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        for qi in 0..batch.len() {
            let dir = batch.dirs.vector(qi);
            counters.candidates +=
                seed_query(buckets.buckets(), dir, k, &mut top, &mut seed_counts);
            let mut list = adaptive_topk_sweep(
                buckets.buckets(),
                dir,
                selector,
                scratch,
                &mut sink,
                &mut top,
                &seed_counts,
                &mut counters,
                &mut mix,
            );
            for item in &mut list {
                item.score *= batch.lengths[qi];
            }
            lists[batch.ids[qi] as usize] = list;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketPolicy;
    use crate::Lemp;
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;

    fn data(m: usize, n: usize, cov: f64, seed: u64) -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(m, 10, cov).generate(seed);
        let p = GeneratorConfig::gaussian(n, 10, cov).generate(seed + 1);
        (q, p)
    }

    fn policies() -> [BanditPolicy; 3] {
        [
            BanditPolicy::Ucb1 { c: 1.0 },
            BanditPolicy::Ucb1 { c: 0.0 },
            BanditPolicy::EpsilonGreedy { epsilon: 0.1, seed: 42 },
        ]
    }

    #[test]
    fn adaptive_above_matches_naive_for_every_policy() {
        let (q, p) = data(60, 400, 1.0, 77);
        let (expect, _) = Naive.above_theta(&q, &p, 1.2);
        assert!(!expect.is_empty());
        for policy in policies() {
            let acfg = AdaptiveConfig { policy, ..Default::default() };
            let mut engine = Lemp::new(&p);
            let (out, report) = engine.above_theta_adaptive(&q, 1.2, &acfg);
            assert_eq!(
                canonical_pairs(&out.entries),
                canonical_pairs(&expect),
                "{policy:?} diverges from Naive"
            );
            assert!(report.total_pulls() > 0);
        }
    }

    #[test]
    fn adaptive_topk_matches_naive_for_every_policy() {
        let (q, p) = data(40, 300, 0.8, 88);
        for k in [1usize, 5] {
            let (expect, _) = Naive.row_top_k(&q, &p, k);
            for policy in policies() {
                let acfg = AdaptiveConfig { policy, ..Default::default() };
                let mut engine = Lemp::new(&p);
                let (out, _) = engine.row_top_k_adaptive(&q, k, &acfg);
                assert!(
                    topk_equivalent(&out.lists, &expect, 1e-9),
                    "{policy:?} diverges from Naive at k={k}"
                );
            }
        }
    }

    #[test]
    fn coord_flavor_matches_naive() {
        let (q, p) = data(30, 200, 1.2, 99);
        let (expect, _) = Naive.above_theta(&q, &p, 0.9);
        let acfg = AdaptiveConfig { use_incr: false, ..Default::default() };
        let mut engine = Lemp::new(&p);
        let (out, _) = engine.above_theta_adaptive(&q, 0.9, &acfg);
        assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect));
    }

    #[test]
    fn warm_up_pulls_every_arm_once_per_active_bin() {
        let (q, p) = data(200, 300, 0.6, 11);
        let acfg = AdaptiveConfig::default();
        let mut engine = Lemp::new(&p);
        let (_, report) = engine.above_theta_adaptive(&q, 0.5, &acfg);
        let arms = report.arm_names.len();
        for bins in &report.buckets {
            for bin in bins {
                let pulls: u64 = bin.arms.iter().map(|a| a.pulls).sum();
                if pulls >= arms as u64 {
                    assert!(
                        bin.arms.iter().all(|a| a.pulls > 0),
                        "a bin with {pulls} pulls left an arm unexplored"
                    );
                }
            }
        }
    }

    #[test]
    fn report_pull_total_equals_method_mix_total() {
        let (q, p) = data(80, 250, 1.0, 22);
        let acfg = AdaptiveConfig::default();
        let mut engine = Lemp::new(&p);
        let (out, report) = engine.above_theta_adaptive(&q, 0.8, &acfg);
        assert_eq!(report.total_pulls(), out.stats.method_mix.total());
    }

    #[test]
    fn bin_mapping_clamps_and_partitions() {
        let sel = AdaptiveSelector::new(AdaptiveConfig::default(), 1, 10);
        assert_eq!(sel.bin(-3.0), 0);
        assert_eq!(sel.bin(0.0), 0);
        assert_eq!(sel.bin(0.1), 0);
        assert_eq!(sel.bin(0.26), 1);
        assert_eq!(sel.bin(0.51), 2);
        assert_eq!(sel.bin(0.99), 3);
        assert_eq!(sel.bin(1.0), 3);
        assert_eq!(sel.bin(f64::INFINITY), 0); // pruned upstream anyway
    }

    #[test]
    fn arm_zero_is_length_and_phi_one_is_coord() {
        let sel = AdaptiveSelector::new(AdaptiveConfig::default(), 1, 10);
        assert_eq!(sel.method(0), ResolvedMethod::Length);
        assert_eq!(sel.method(1), ResolvedMethod::Coord(1)); // Appendix A
        assert_eq!(sel.method(2), ResolvedMethod::Incr(2));
        let sel =
            AdaptiveSelector::new(AdaptiveConfig { use_incr: false, ..Default::default() }, 1, 10);
        assert_eq!(sel.method(3), ResolvedMethod::Coord(3));
    }

    #[test]
    fn max_phi_is_capped_by_dimensionality() {
        let sel = AdaptiveSelector::new(AdaptiveConfig { max_phi: 50, ..Default::default() }, 1, 3);
        assert_eq!(sel.arm_count(), 4); // LENGTH + φ ∈ {1, 2, 3}
    }

    #[test]
    fn ucb_pulls_unpulled_arms_first_then_exploits_cheap_arm() {
        let mut sel = AdaptiveSelector::new(
            AdaptiveConfig { policy: BanditPolicy::Ucb1 { c: 0.0 }, ..Default::default() },
            1,
            10,
        );
        let arms = sel.arm_count();
        let mut seen = Vec::new();
        for i in 0..arms {
            let arm = sel.choose(0, 0);
            seen.push(arm);
            // arm 2 is made cheap, everything else expensive
            sel.record(0, 0, arm, if arm == 2 { 10 } else { 10_000 });
            let _ = i;
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..arms).collect::<Vec<_>>(), "warm-up covers every arm");
        // With c = 0, exploitation must now lock onto the cheap arm.
        for _ in 0..5 {
            let arm = sel.choose(0, 0);
            assert_eq!(arm, 2);
            sel.record(0, 0, arm, 10);
        }
    }

    #[test]
    fn epsilon_one_explores_uniformly_and_epsilon_zero_exploits() {
        let mut explorer = AdaptiveSelector::new(
            AdaptiveConfig {
                policy: BanditPolicy::EpsilonGreedy { epsilon: 1.0, seed: 1 },
                ..Default::default()
            },
            1,
            10,
        );
        let arms = explorer.arm_count();
        let mut counts = vec![0u32; arms];
        for i in 0..500 {
            let arm = explorer.choose(0, 0);
            counts[arm] += 1;
            explorer.record(0, 0, arm, 100 + i as u64);
        }
        assert!(counts.iter().all(|&c| c > 0), "ε=1 must reach every arm: {counts:?}");

        let mut exploiter = AdaptiveSelector::new(
            AdaptiveConfig {
                policy: BanditPolicy::EpsilonGreedy { epsilon: 0.0, seed: 1 },
                ..Default::default()
            },
            1,
            10,
        );
        for _ in 0..arms {
            let arm = exploiter.choose(0, 0);
            exploiter.record(0, 0, arm, if arm == 1 { 5 } else { 5_000 });
        }
        for _ in 0..5 {
            let arm = exploiter.choose(0, 0);
            assert_eq!(arm, 1);
            exploiter.record(0, 0, arm, 5);
        }
    }

    #[test]
    fn warm_selector_accumulates_learning_across_runs() {
        let (q, p) = data(50, 300, 1.0, 55);
        let (expect, _) = Naive.above_theta(&q, &p, 1.0);
        let mut engine = Lemp::new(&p);
        let mut selector = engine.adaptive_selector(&AdaptiveConfig::default());
        assert_eq!(selector.total_pulls(), 0);

        let out1 = engine.above_theta_adaptive_with(&q, 1.0, &mut selector);
        let after_first = selector.total_pulls();
        assert!(after_first > 0);
        let out2 = engine.above_theta_adaptive_with(&q, 1.0, &mut selector);
        assert!(selector.total_pulls() > after_first, "state persists across runs");
        // Both runs are exact regardless of the learning trajectory.
        assert_eq!(canonical_pairs(&out1.entries), canonical_pairs(&expect));
        assert_eq!(canonical_pairs(&out2.entries), canonical_pairs(&expect));

        // The same selector serves top-k runs over the same engine.
        let (expect_k, _) = Naive.row_top_k(&q, &p, 3);
        let out = engine.row_top_k_adaptive_with(&q, 3, &mut selector);
        assert!(topk_equivalent(&out.lists, &expect_k, 1e-9));
    }

    #[test]
    #[should_panic(expected = "different bucketization")]
    fn foreign_selector_is_rejected() {
        let (q, p) = data(10, 200, 1.0, 56);
        let small = GeneratorConfig::gaussian(40, 10, 0.5).generate(57);
        let other = Lemp::new(&small);
        let mut selector = other.adaptive_selector(&AdaptiveConfig::default());
        if selector.bucket_count() == Lemp::new(&p).buckets().bucket_count() {
            // Degenerate collision: force a mismatch instead of a flaky pass.
            panic!("different bucketization (fixture collision)");
        }
        let mut engine = Lemp::new(&p);
        let _ = engine.above_theta_adaptive_with(&q, 1.0, &mut selector);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let p = GeneratorConfig::gaussian(50, 6, 0.5).generate(5);
        let empty = VectorStore::empty(6).unwrap();
        let acfg = AdaptiveConfig::default();
        let mut engine = Lemp::new(&p);
        let (out, _) = engine.above_theta_adaptive(&empty, 0.5, &acfg);
        assert!(out.entries.is_empty());
        let (out, _) = engine.row_top_k_adaptive(&empty, 3, &acfg);
        assert!(out.lists.is_empty());
        let (out, _) = engine.row_top_k_adaptive(&p, 0, &acfg);
        assert!(out.lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn adaptive_engine_reusable_and_buckets_consistent() {
        let (q, p) = data(30, 200, 1.0, 33);
        let policy = BucketPolicy::default();
        let mut engine = Lemp::builder().policy(policy).build(&p);
        let acfg = AdaptiveConfig::default();
        let (a, ra) = engine.above_theta_adaptive(&q, 1.0, &acfg);
        let (b, rb) = engine.above_theta_adaptive(&q, 1.0, &acfg);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
        assert_eq!(ra.buckets.len(), rb.buckets.len());
        assert_eq!(ra.buckets.len(), engine.buckets().bucket_count());
    }

    #[test]
    fn splitmix_f64_is_in_unit_interval() {
        let mut rng = SplitMix64(123);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
        for n in [1usize, 2, 7] {
            for _ in 0..100 {
                assert!(rng.next_below(n) < n);
            }
        }
    }
}
