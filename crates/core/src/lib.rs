//! LEMP: fast retrieval of **L**arge **E**ntries in a **M**atrix **P**roduct.
//!
//! From-scratch reproduction of Teflioudi, Gemulla, Mykytiuk (SIGMOD 2015).
//! Given two tall-and-skinny factor matrices — a *query* side `Q` and a
//! *probe* side `P`, stored as one vector per row — LEMP retrieves the large
//! entries of `QᵀP` without materializing the product:
//!
//! * **Above-θ** (Problem 1): all `(i, j)` with `qᵢᵀpⱼ ≥ θ`.
//! * **Row-Top-k** (Problem 2): for every query, the `k` probes with the
//!   largest inner products.
//!
//! The algorithm decomposes every vector into length × direction, groups
//! probes into cache-resident buckets of similar length, prunes whole
//! buckets via the local threshold `θ_b(q) = θ/(‖q‖·l_b)`, and solves a
//! small cosine-similarity problem per surviving bucket with a per-bucket,
//! sample-tuned choice of method: LENGTH, COORD, INCR, or adapters around
//! TA, cover trees, L2AP and BayesLSH-Lite (see [`LempVariant`]).
//!
//! # Quickstart
//!
//! ```
//! use lemp_core::{Lemp, LempVariant};
//! use lemp_linalg::VectorStore;
//!
//! // 3 queries and 4 probes in 2 dimensions (rows = vectors).
//! let queries = VectorStore::from_rows(&[
//!     vec![3.2, -0.4],
//!     vec![0.0, 1.8],
//!     vec![1.0, 1.0],
//! ]).unwrap();
//! let probes = VectorStore::from_rows(&[
//!     vec![1.6, 0.6],
//!     vec![0.7, 2.7],
//!     vec![1.0, 2.8],
//!     vec![0.4, 2.2],
//! ]).unwrap();
//!
//! let mut engine = Lemp::builder().variant(LempVariant::LI).build(&probes);
//! let out = engine.above_theta(&queries, 3.8);
//! assert!(out.entries.iter().all(|e| e.value >= 3.8));
//!
//! let top = engine.row_top_k(&queries, 2);
//! assert_eq!(top.lists.len(), 3);
//! assert_eq!(top.lists[0].len(), 2);
//! ```
//!
//! # The unified query surface
//!
//! Beyond the convenience methods above, every retrieval problem flows
//! through one planned pipeline (see [`plan`]): a [`QueryRequest`]
//! compiles via [`Engine::plan`] into a [`QueryPlan`] (per-bucket
//! algorithm assignment from the tuned `t_b`/`φ_b`) and executes through
//! [`Engine::execute`] with a caller-owned [`Scratch`]. [`Lemp`],
//! [`DynamicLemp`] and [`ShardedLemp`] all implement the dyn-compatible
//! [`Engine`] trait, so services hold `Box<dyn Engine>` handles and never
//! dispatch on the backend.

#![warn(missing_docs)]

pub mod adaptive;
pub mod algos;
pub mod bounds;
pub mod bucket;
pub mod dynamic;
pub mod exec;
pub mod index;
pub mod persist;
pub mod plan;
pub mod quant;
pub mod query;
pub mod runner;
pub mod scratch;
pub mod shard;
pub mod stream;
pub mod telemetry;
pub mod tuner;
pub mod variant;

pub use adaptive::{AdaptiveConfig, AdaptiveReport, AdaptiveSelector, BanditPolicy};
pub use algos::MethodScratch;
pub use bucket::{Bucket, BucketPolicy, MemoryUsage, ProbeBuckets};
pub use dynamic::DynamicLemp;
pub use exec::RunConfig;
pub use lemp_baselines::types::{Entry, RetrievalCounters, TopKLists};
pub use persist::PersistError;
pub use plan::{
    BucketAlgo, Engine, ExecOptions, PlanSegment, Planner, QueryKind, QueryPlan, QueryRequest,
    QueryResponse, QueryRows, Scratch,
};
pub use quant::{QuantCodes, QuantizedBucket};
pub use runner::{AboveThetaOutput, MethodMix, RunStats, TopKOutput};
pub use shard::{ShardPolicy, ShardScratch, ShardedLemp};
pub use stream::column_top_k;
pub use telemetry::{NullSink, TelemetrySink};
pub use variant::{LempVariant, TunedParams};

use algos::blsh_bucket::MinMatchTable;
use lemp_linalg::VectorStore;

/// What a [`Lemp::warm`] (or [`DynamicLemp::warm`]) call tunes for. The
/// goal only steers the Sec. 4.4 tuner's per-bucket `t_b`/`φ_b` choice —
/// a warmed engine answers *both* problems at any `θ`/`k`, with identical
/// results; only the time spent can differ from a freshly tuned run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmGoal {
    /// Tune for Row-Top-k at the given `k`.
    TopK(usize),
    /// Tune for Above-θ at the given threshold.
    Above(f64),
}

/// What a warm-up did: index construction and tuning effort.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmReport {
    /// Indexes built during the warm-up.
    pub indexes_built: u64,
    /// Nanoseconds spent building indexes.
    pub build_ns: u64,
    /// Nanoseconds spent in the Sec. 4.4 tuner.
    pub tune_ns: u64,
}

/// Materialized per-run state of a warmed engine: the tuned per-bucket
/// parameters plus the precomputed BLSH minimum-match table. Once this
/// exists (and every bucket's indexes are built), the query drivers never
/// need `&mut` access again.
#[derive(Debug, Clone)]
pub(crate) struct WarmState {
    pub(crate) per_bucket: Vec<TunedParams>,
    pub(crate) blsh_table: Option<MinMatchTable>,
}

impl WarmState {
    /// Tunes `buckets` on `sample` for `goal` and force-builds every
    /// bucket's indexes — the shared engine-warming step behind
    /// [`Lemp::warm`] and [`DynamicLemp::warm`].
    pub(crate) fn build(
        buckets: &mut ProbeBuckets,
        config: &RunConfig,
        sample: &VectorStore,
        goal: WarmGoal,
    ) -> (WarmState, WarmReport) {
        assert_eq!(sample.dim(), buckets.dim(), "query/probe dimensionality mismatch");
        let batch = query::QueryBatch::build(sample);
        let mut scratch = MethodScratch::new(runner::max_bucket_len(buckets));
        let mut clock = exec::BuildClock::default();
        let tune_goal = match goal {
            WarmGoal::TopK(k) => tuner::TuneGoal::TopK(k),
            WarmGoal::Above(theta) => tuner::TuneGoal::Above(theta),
        };
        let tuning = tuner::tune(buckets, &batch, &tune_goal, config, &mut scratch, &mut clock);
        runner::prebuild_all(buckets, config, &tuning.per_bucket, &mut clock);
        let state = WarmState {
            per_bucket: tuning.per_bucket,
            blsh_table: runner::make_blsh_table(config),
        };
        let report =
            WarmReport { indexes_built: clock.built, build_ns: clock.ns, tune_ns: tuning.tune_ns };
        (state, report)
    }
}

/// **|Above-θ|** on top of any Above-θ runner: one pass as-is, one pass
/// over sign-flipped queries (exact negations), results merged with their
/// true signed values. Shared by the static/dynamic, lazy/shared variants.
pub(crate) fn abs_above_theta_via(
    queries: &VectorStore,
    theta: f64,
    mut run: impl FnMut(&VectorStore) -> AboveThetaOutput,
) -> AboveThetaOutput {
    assert!(theta > 0.0, "abs_above_theta requires theta > 0, got {theta}");
    let mut out = run(queries);
    let negated = queries.negated();
    let neg = run(&negated);
    out.entries.extend(neg.entries.iter().map(|e| Entry {
        query: e.query,
        probe: e.probe,
        value: -e.value,
    }));
    out.stats.merge(&neg.stats);
    out.stats.counters.queries = queries.len() as u64;
    out.stats.counters.results = out.entries.len() as u64;
    out
}

/// The LEMP retrieval engine: preprocessed probe buckets plus run options.
///
/// Construction performs the (cheap) bucketization; per-bucket indexes are
/// built lazily inside the first query run that needs them. The engine is
/// reusable across thresholds, `k` values and query sets — exactly how the
/// paper's evaluation sweeps its workloads.
///
/// # Sharing the engine across threads
///
/// Every query entry point comes in two flavors. The `&mut self`
/// convenience methods ([`Lemp::above_theta`], [`Lemp::row_top_k`], …)
/// tune and build indexes lazily inside the call — ideal for one-shot
/// batch runs. A long-lived service instead calls [`Lemp::warm`] once to
/// force tuning and index materialization, after which the `*_shared`
/// methods ([`Lemp::above_theta_shared`], [`Lemp::row_top_k_shared`], …)
/// answer queries through `&self` with a caller-owned [`MethodScratch`],
/// so one engine serves any number of threads concurrently:
///
/// ```
/// use lemp_core::{Lemp, WarmGoal};
/// use lemp_linalg::VectorStore;
///
/// let probes = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
/// let queries = VectorStore::from_rows(&[vec![3.0, 1.0]]).unwrap();
/// let mut engine = Lemp::new(&probes);
/// engine.warm(&queries, WarmGoal::TopK(1));
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         // shared borrows only — no locking needed
///         let (engine, queries) = (&engine, &queries);
///         s.spawn(move || {
///             let mut scratch = engine.make_scratch();
///             let top = engine.row_top_k_shared(queries, 1, &mut scratch);
///             assert_eq!(top.lists[0][0].id, 0);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct Lemp {
    buckets: ProbeBuckets,
    config: RunConfig,
    warm: Option<WarmState>,
}

/// Builder for [`Lemp`].
#[derive(Debug, Clone, Default)]
pub struct LempBuilder {
    policy: BucketPolicy,
    config: RunConfig,
}

impl LempBuilder {
    /// Selects the bucket method(s); default [`LempVariant::LI`], the
    /// paper's overall winner.
    pub fn variant(mut self, variant: LempVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Overrides the bucketization policy (length ratio, min size, cache
    /// budget).
    pub fn policy(mut self, policy: BucketPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of queries the tuner samples (Sec. 4.4; default 50).
    pub fn sample_size(mut self, sample: usize) -> Self {
        self.config.sample_size = sample;
        self
    }

    /// Retrieval worker threads (default 1 — the paper's setting; queries
    /// are embarrassingly parallel, so >1 is a faithful extension).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Cover-tree base for `LEMP-Tree` (default 1.3).
    pub fn tree_base(mut self, base: f64) -> Self {
        self.config.tree_base = base;
        self
    }

    /// BLSH signature width and ε for `LEMP-BLSH` (defaults 32 bits, 0.03).
    pub fn blsh(mut self, bits: usize, eps: f64) -> Self {
        self.config.blsh_bits = bits;
        self.config.blsh_eps = eps;
        self
    }

    /// Enables quantized probe buckets with `bits`-wide PQ codes
    /// (1..=16; 0 disables, the default). When enabled, [`Lemp::warm`]
    /// trains the engine's subspace codebook, encodes every bucket against
    /// it, and the tuner may route bucket scans through the LUT kernel;
    /// every candidate is re-verified against the full-precision vectors,
    /// so results stay exact.
    ///
    /// # Panics
    /// If `bits > 16` — use the CLI/service layers for non-panicking
    /// validation of untrusted input.
    pub fn quantize(mut self, bits: u8) -> Self {
        assert!(bits <= quant::MAX_QUANT_BITS, "quantize bits must be ≤ 16, got {bits}");
        self.config.quantize_bits = bits;
        self
    }

    /// Forces the quantized LUT scan on every bucket with codes instead
    /// of letting the tuner price LUT vs exact (see
    /// [`RunConfig::quantize_force`]). No effect without
    /// [`quantize`](Self::quantize).
    pub fn quantize_force(mut self, force: bool) -> Self {
        self.config.quantize_force = force;
        self
    }

    /// Builds the engine over the probe vectors (one vector per row).
    pub fn build(self, probes: &VectorStore) -> Lemp {
        Lemp { buckets: ProbeBuckets::build(probes, &self.policy), config: self.config, warm: None }
    }
}

impl Lemp {
    /// Builder with the paper's default configuration.
    pub fn builder() -> LempBuilder {
        LempBuilder::default()
    }

    /// Engine over `probes` with all defaults (LEMP-LI).
    pub fn new(probes: &VectorStore) -> Self {
        Self::builder().build(probes)
    }

    /// The preprocessed probe buckets (inspection / tests).
    pub fn buckets(&self) -> &ProbeBuckets {
        &self.buckets
    }

    /// Mutable bucket access for in-crate structure surgery (the sharded
    /// engine relabels bucket ids to global probe ids after building each
    /// shard over its slice of the probe matrix).
    pub(crate) fn buckets_mut(&mut self) -> &mut ProbeBuckets {
        &mut self.buckets
    }

    /// The active run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Probe-side memory residency: full-precision bytes vs quantized
    /// bytes across all buckets (the quantized side is 0 until the
    /// codebook is trained — i.e. before a warm-up with quantization
    /// enabled).
    pub fn memory_usage(&self) -> MemoryUsage {
        self.buckets.memory_usage()
    }

    /// Overrides the retrieval worker-thread count of an existing engine
    /// (services load persisted engines and pick their own threading).
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// **Warms the engine for shared (`&self`) querying**: runs the
    /// Sec. 4.4 tuner on `sample` for `goal` and force-builds every
    /// bucket's indexes (the variant's method at the largest reachable
    /// local threshold, plus both sorted-list layouts for the adaptive arm
    /// menu). Afterwards the `*_shared` methods answer queries without any
    /// mutable access, so one engine can serve many threads concurrently.
    ///
    /// Warming again (e.g. with a different goal) re-tunes but reuses all
    /// existing indexes. After a warm-up the `&mut` convenience wrappers
    /// become thin shims over the shared path.
    ///
    /// # Panics
    /// If the sample dimensionality differs from the probe dimensionality.
    pub fn warm(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        let (state, report) = WarmState::build(&mut self.buckets, &self.config, sample, goal);
        self.warm = Some(state);
        report
    }

    /// Whether [`Lemp::warm`] has run (the `*_shared` methods are usable).
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// A [`MethodScratch`] sized for this engine's largest bucket, for use
    /// with the `*_shared` methods (one per querying thread).
    pub fn make_scratch(&self) -> MethodScratch {
        MethodScratch::new(runner::max_bucket_len(&self.buckets))
    }

    pub(crate) fn warm_state(&self, caller: &str) -> &WarmState {
        self.warm
            .as_ref()
            .unwrap_or_else(|| panic!("{caller} requires a warmed engine: call Lemp::warm first"))
    }

    /// The unified execution core behind every `*_shared` entry point:
    /// builds the prepared view from the warm state and hands the request
    /// to [`plan::run_request_single`] — one code path for all five
    /// methods (plus their adaptive/chunked variants).
    fn shared_request(
        &self,
        caller: &str,
        request: &QueryRequest,
        queries: &VectorStore,
        scratch: &mut MethodScratch,
        selector: Option<&mut AdaptiveSelector>,
    ) -> QueryResponse {
        let warm = self.warm_state(caller);
        let parts = plan::SinglePrepared {
            buckets: &self.buckets,
            config: &self.config,
            per_bucket: &warm.per_bucket,
            blsh: warm.blsh_table.as_ref(),
        };
        plan::run_request_single(&parts, request, queries, scratch, selector)
    }

    /// [`Lemp::above_theta`] through `&self` over a warmed engine, with a
    /// caller-owned scratch — safe to call from many threads concurrently.
    ///
    /// # Panics
    /// If the engine is not warmed ([`Lemp::warm`]) or on query/probe
    /// dimensionality mismatch.
    pub fn above_theta_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        scratch: &mut MethodScratch,
    ) -> AboveThetaOutput {
        self.shared_request(
            "above_theta_shared",
            &QueryRequest::above_theta(theta),
            queries,
            scratch,
            None,
        )
        .into_above()
    }

    /// [`Lemp::row_top_k`] through `&self` over a warmed engine, with a
    /// caller-owned scratch — safe to call from many threads concurrently.
    ///
    /// # Panics
    /// If the engine is not warmed ([`Lemp::warm`]) or on query/probe
    /// dimensionality mismatch.
    pub fn row_top_k_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        scratch: &mut MethodScratch,
    ) -> TopKOutput {
        self.row_top_k_with_floor_shared(queries, k, f64::NEG_INFINITY, scratch)
    }

    /// [`Lemp::row_top_k_with_floor`] through `&self` over a warmed engine.
    ///
    /// # Panics
    /// If the engine is not warmed ([`Lemp::warm`]) or on query/probe
    /// dimensionality mismatch.
    pub fn row_top_k_with_floor_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        floor: f64,
        scratch: &mut MethodScratch,
    ) -> TopKOutput {
        self.shared_request(
            "row_top_k_with_floor_shared",
            &QueryRequest::top_k_with_floor(k, floor),
            queries,
            scratch,
            None,
        )
        .into_top_k()
    }

    /// [`Lemp::abs_above_theta`] through `&self` over a warmed engine.
    ///
    /// # Panics
    /// If `theta ≤ 0`, the engine is not warmed, or on dimensionality
    /// mismatch.
    pub fn abs_above_theta_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        scratch: &mut MethodScratch,
    ) -> AboveThetaOutput {
        self.shared_request(
            "abs_above_theta_shared",
            &QueryRequest::abs_above_theta(theta),
            queries,
            scratch,
            None,
        )
        .into_above()
    }

    /// [`Lemp::above_theta_adaptive_with`] through `&self` over a warmed
    /// engine (the selector carries the learning state; the engine is only
    /// read). Concurrent callers need distinct selectors or external
    /// synchronization of one.
    ///
    /// # Panics
    /// If the engine is not warmed, the selector was sized for a different
    /// bucketization, or on dimensionality mismatch.
    pub fn above_theta_adaptive_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        selector: &mut AdaptiveSelector,
        scratch: &mut MethodScratch,
    ) -> AboveThetaOutput {
        self.shared_request(
            "above_theta_adaptive_shared",
            &QueryRequest::above_theta(theta),
            queries,
            scratch,
            Some(selector),
        )
        .into_above()
    }

    /// [`Lemp::row_top_k_adaptive_with`] through `&self` over a warmed
    /// engine.
    ///
    /// # Panics
    /// Same conditions as [`Lemp::above_theta_adaptive_shared`].
    pub fn row_top_k_adaptive_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        selector: &mut AdaptiveSelector,
        scratch: &mut MethodScratch,
    ) -> TopKOutput {
        self.shared_request(
            "row_top_k_adaptive_shared",
            &QueryRequest::top_k(k),
            queries,
            scratch,
            Some(selector),
        )
        .into_top_k()
    }

    /// Solves **Above-θ**: all entries of `QᵀP` that are ≥ `theta`.
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn above_theta(&mut self, queries: &VectorStore, theta: f64) -> AboveThetaOutput {
        if self.warm.is_some() {
            let mut scratch = self.make_scratch();
            return self.above_theta_shared(queries, theta, &mut scratch);
        }
        runner::above_theta(&mut self.buckets, queries, theta, &self.config)
    }

    /// Solves **Row-Top-k**: for each query row, the `k` probes with the
    /// largest inner products (ties broken deterministically by probe id).
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn row_top_k(&mut self, queries: &VectorStore, k: usize) -> TopKOutput {
        if self.warm.is_some() {
            let mut scratch = self.make_scratch();
            return self.row_top_k_shared(queries, k, &mut scratch);
        }
        runner::row_top_k(&mut self.buckets, queries, k, &self.config)
    }

    /// Solves **|Above-θ|**: all entries of `QᵀP` with `|qᵀp| ≥ theta`
    /// (`theta > 0`). The paper's open-information-extraction motivation
    /// asks for both directions: strongly positive entries are
    /// high-confidence facts, strongly negative ones are "unlikely facts"
    /// (Sec. 1). Implemented as two exact Above-θ passes — the second over
    /// sign-flipped queries, whose inner products are the exact negations —
    /// so the result is bit-exact, with entries carrying their true signed
    /// values.
    ///
    /// # Panics
    /// If `theta ≤ 0` (the two-sided problem is only meaningful above 0;
    /// Problem 1 in the paper makes the same assumption) or on query/probe
    /// dimensionality mismatch.
    pub fn abs_above_theta(&mut self, queries: &VectorStore, theta: f64) -> AboveThetaOutput {
        abs_above_theta_via(queries, theta, |q| self.above_theta(q, theta))
    }

    /// **Row-Top-k with a score floor**: for each query, the up-to-`k`
    /// probes with the largest inner products *among those with
    /// `qᵀp ≥ floor`* — the recommender-system cut-off ("top-k items, but
    /// only if actually relevant"). Unlike filtering the plain top-k
    /// afterwards, the floor feeds the driver's running threshold `θ′`
    /// from below, so high floors prune buckets instead of scanning them.
    /// `floor = f64::NEG_INFINITY` is exactly [`Lemp::row_top_k`].
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn row_top_k_with_floor(
        &mut self,
        queries: &VectorStore,
        k: usize,
        floor: f64,
    ) -> TopKOutput {
        if self.warm.is_some() {
            let mut scratch = self.make_scratch();
            return self.row_top_k_with_floor_shared(queries, k, floor, &mut scratch);
        }
        runner::row_top_k_floor(&mut self.buckets, queries, k, floor, &self.config)
    }

    /// **Above-θ with online (bandit) algorithm selection** — the paper's
    /// Sec. 4.4 outlook ("some form of reinforcement learning") instead of
    /// the sample-based tuner. Results are identical to any exact variant;
    /// only the time spent differs. Returns the output plus a report of
    /// what each per-(bucket, θ_b-bin) bandit learned. Serial.
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn above_theta_adaptive(
        &mut self,
        queries: &VectorStore,
        theta: f64,
        acfg: &AdaptiveConfig,
    ) -> (AboveThetaOutput, AdaptiveReport) {
        adaptive::above_theta_adaptive(&mut self.buckets, queries, theta, &self.config, acfg)
    }

    /// [`Lemp::above_theta_adaptive`] for Row-Top-k workloads.
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn row_top_k_adaptive(
        &mut self,
        queries: &VectorStore,
        k: usize,
        acfg: &AdaptiveConfig,
    ) -> (TopKOutput, AdaptiveReport) {
        adaptive::row_top_k_adaptive(&mut self.buckets, queries, k, &self.config, acfg)
    }

    /// A fresh [`AdaptiveSelector`] sized for this engine's bucketization,
    /// for use with the warm-state drivers
    /// ([`Lemp::above_theta_adaptive_with`] /
    /// [`Lemp::row_top_k_adaptive_with`]).
    pub fn adaptive_selector(&self, acfg: &AdaptiveConfig) -> AdaptiveSelector {
        AdaptiveSelector::new(*acfg, self.buckets.bucket_count(), self.buckets.dim())
    }

    /// [`Lemp::above_theta_adaptive`] with **caller-owned learning state**:
    /// the selector keeps its arm statistics across calls, so a long-lived
    /// service pays the exploration warm-up once and exploits thereafter.
    /// Obtain the selector from [`Lemp::adaptive_selector`]; inspect what it
    /// learned at any time via [`AdaptiveSelector::report`].
    ///
    /// # Panics
    /// On dimensionality mismatch, or if the selector was sized for a
    /// different bucketization (e.g. another engine).
    pub fn above_theta_adaptive_with(
        &mut self,
        queries: &VectorStore,
        theta: f64,
        selector: &mut AdaptiveSelector,
    ) -> AboveThetaOutput {
        if self.warm.is_some() {
            let mut scratch = self.make_scratch();
            return self.above_theta_adaptive_shared(queries, theta, selector, &mut scratch);
        }
        adaptive::above_theta_adaptive_with(
            &mut self.buckets,
            queries,
            theta,
            &self.config,
            selector,
        )
    }

    /// [`Lemp::above_theta_adaptive_with`] for Row-Top-k workloads.
    ///
    /// # Panics
    /// On dimensionality mismatch, or if the selector was sized for a
    /// different bucketization.
    pub fn row_top_k_adaptive_with(
        &mut self,
        queries: &VectorStore,
        k: usize,
        selector: &mut AdaptiveSelector,
    ) -> TopKOutput {
        if self.warm.is_some() {
            let mut scratch = self.make_scratch();
            return self.row_top_k_adaptive_shared(queries, k, selector, &mut scratch);
        }
        adaptive::row_top_k_adaptive_with(&mut self.buckets, queries, k, &self.config, selector)
    }

    /// Runs only the Sec. 4.4 sample-based tuner for an Above-θ workload
    /// and returns the chosen per-bucket parameters (aligned with
    /// [`Lemp::buckets`]), without executing the retrieval. Intended for
    /// inspection and ablation tooling.
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn tune_above(&mut self, queries: &VectorStore, theta: f64) -> Vec<TunedParams> {
        self.tune(queries, tuner::TuneGoal::Above(theta))
    }

    /// [`Lemp::tune_above`] for a Row-Top-k workload.
    ///
    /// # Panics
    /// If the query dimensionality differs from the probe dimensionality.
    pub fn tune_top_k(&mut self, queries: &VectorStore, k: usize) -> Vec<TunedParams> {
        self.tune(queries, tuner::TuneGoal::TopK(k))
    }

    /// Reassembles an engine from preprocessed parts (persistence).
    pub(crate) fn from_parts(buckets: ProbeBuckets, config: RunConfig) -> Self {
        Self { buckets, config, warm: None }
    }

    /// Decomposes the engine into its preprocessed parts
    /// ([`DynamicLemp::from_engine`] reuses a loaded static engine).
    pub(crate) fn into_parts(self) -> (ProbeBuckets, RunConfig) {
        (self.buckets, self.config)
    }

    fn tune(&mut self, queries: &VectorStore, goal: tuner::TuneGoal) -> Vec<TunedParams> {
        assert_eq!(queries.dim(), self.buckets.dim(), "query/probe dimensionality mismatch");
        let batch = query::QueryBatch::build(queries);
        let cap = self.buckets.buckets().iter().map(Bucket::len).max().unwrap_or(0);
        let mut scratch = algos::MethodScratch::new(cap);
        let mut clock = exec::BuildClock::default();
        tuner::tune(&mut self.buckets, &batch, &goal, &self.config, &mut scratch, &mut clock)
            .per_bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;

    fn data(m: usize, n: usize, cov: f64, seed: u64) -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(m, 10, cov).generate(seed);
        let p = GeneratorConfig::gaussian(n, 10, cov).generate(seed + 1);
        (q, p)
    }

    #[test]
    fn all_exact_variants_match_naive_above_theta() {
        let (q, p) = data(60, 400, 1.0, 100);
        let (expect, _) = Naive.above_theta(&q, &p, 1.2);
        assert!(!expect.is_empty(), "fixture must produce results");
        for variant in LempVariant::all() {
            if variant.is_approximate() {
                continue;
            }
            let mut engine = Lemp::builder().variant(variant).sample_size(8).build(&p);
            let out = engine.above_theta(&q, 1.2);
            assert_eq!(
                canonical_pairs(&out.entries),
                canonical_pairs(&expect),
                "{} diverges from Naive",
                variant.name()
            );
        }
    }

    #[test]
    fn all_exact_variants_match_naive_top_k() {
        let (q, p) = data(40, 300, 0.8, 200);
        for k in [1usize, 5] {
            let (expect, _) = Naive.row_top_k(&q, &p, k);
            for variant in LempVariant::all() {
                if variant.is_approximate() {
                    continue;
                }
                let mut engine = Lemp::builder().variant(variant).sample_size(8).build(&p);
                let out = engine.row_top_k(&q, k);
                assert!(
                    topk_equivalent(&out.lists, &expect, 1e-9),
                    "{} diverges from Naive at k={k}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn blsh_recall_is_high() {
        let (q, p) = data(50, 500, 1.0, 300);
        let theta = 1.0;
        let (expect, _) = Naive.above_theta(&q, &p, theta);
        assert!(!expect.is_empty());
        let mut engine = Lemp::builder().variant(LempVariant::Blsh).build(&p);
        let out = engine.above_theta(&q, theta);
        let got = canonical_pairs(&out.entries);
        let truth = canonical_pairs(&expect);
        let found = truth.iter().filter(|pair| got.binary_search(pair).is_ok()).count();
        let recall = found as f64 / truth.len() as f64;
        assert!(recall >= 0.9, "BLSH recall {recall} < 0.9 ({} of {})", found, truth.len());
        // no false positives: every reported entry truly qualifies
        for e in &out.entries {
            assert!(e.value >= theta);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (q, p) = data(50, 300, 0.8, 400);
        let mut serial = Lemp::builder().variant(LempVariant::LI).sample_size(8).build(&p);
        let mut parallel =
            Lemp::builder().variant(LempVariant::LI).sample_size(8).threads(4).build(&p);
        let a = serial.above_theta(&q, 1.0);
        let b = parallel.above_theta(&q, 1.0);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
        let ta = serial.row_top_k(&q, 3);
        let tb = parallel.row_top_k(&q, 3);
        assert!(topk_equivalent(&ta.lists, &tb.lists, 1e-9));
    }

    #[test]
    fn stats_are_populated() {
        let (q, p) = data(30, 200, 1.5, 500);
        let mut engine = Lemp::builder().variant(LempVariant::LI).sample_size(5).build(&p);
        let out = engine.above_theta(&q, 0.8);
        let s = &out.stats;
        assert!(s.bucket_count > 0);
        assert_eq!(s.counters.queries, 30);
        assert!(s.counters.retrieval_ns > 0);
        assert!(s.counters.candidates >= out.entries.len() as u64);
        // candidate pruning: far fewer than the full product
        assert!(s.counters.candidates < (q.len() * p.len()) as u64);
    }

    #[test]
    fn method_mix_reflects_the_variant() {
        let (q, p) = data(40, 300, 1.0, 900);
        // Pure LENGTH: every processed pair is a LENGTH pair.
        let mut engine = Lemp::builder().variant(LempVariant::L).sample_size(5).build(&p);
        let out = engine.above_theta(&q, 0.8);
        let mix = &out.stats.method_mix;
        assert!(mix.total() > 0);
        assert_eq!(mix.total(), mix.length);
        assert!((mix.length_share() - 1.0).abs() < 1e-12);
        // Hybrid LI: only LENGTH, COORD or INCR pairs ever appear.
        let mut engine = Lemp::builder().variant(LempVariant::LI).sample_size(5).build(&p);
        let out = engine.above_theta(&q, 0.8);
        let mix = &out.stats.method_mix;
        assert!(mix.total() > 0);
        assert_eq!(mix.ta + mix.tree + mix.l2ap + mix.blsh, 0);
        // TA variant: all pairs served by the TA adapter.
        let mut engine = Lemp::builder().variant(LempVariant::Ta).sample_size(5).build(&p);
        let out = engine.row_top_k(&q, 3);
        let mix = &out.stats.method_mix;
        assert!(mix.total() > 0);
        assert_eq!(mix.total(), mix.ta);
    }

    #[test]
    fn engine_is_reusable_across_thresholds_and_k() {
        let (q, p) = data(20, 150, 1.0, 600);
        let mut engine = Lemp::builder().sample_size(5).build(&p);
        let hi = engine.above_theta(&q, 2.0);
        let lo = engine.above_theta(&q, 0.5);
        assert!(lo.entries.len() >= hi.entries.len());
        let t1 = engine.row_top_k(&q, 1);
        let t5 = engine.row_top_k(&q, 5);
        assert!(t5.stats.counters.results >= t1.stats.counters.results);
    }

    #[test]
    fn empty_queries_and_probes() {
        let (q, p) = data(10, 50, 0.5, 700);
        let empty = VectorStore::empty(10).unwrap();
        let mut engine = Lemp::new(&p);
        let out = engine.above_theta(&empty, 0.5);
        assert!(out.entries.is_empty());
        let out = engine.row_top_k(&empty, 3);
        assert!(out.lists.is_empty());

        let mut engine = Lemp::new(&empty);
        let out = engine.above_theta(&q, 0.5);
        assert!(out.entries.is_empty());
        let out = engine.row_top_k(&q, 3);
        assert_eq!(out.lists.len(), 10);
        assert!(out.lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn k_zero_and_k_exceeding_n() {
        let (q, p) = data(15, 40, 0.5, 800);
        let mut engine = Lemp::new(&p);
        let out = engine.row_top_k(&q, 0);
        assert!(out.lists.iter().all(Vec::is_empty));
        let out = engine.row_top_k(&q, 100);
        for l in &out.lists {
            assert_eq!(l.len(), 40);
        }
    }

    #[test]
    fn abs_above_theta_matches_two_sided_ground_truth() {
        let (q, p) = data(40, 250, 1.0, 1000);
        let theta = 1.0;
        // Ground truth: scan the full product and keep |value| ≥ θ.
        let mut expect: Vec<(u32, u32)> = Vec::new();
        for i in 0..q.len() {
            for j in 0..p.len() {
                let v = q.dot_between(i, &p, j);
                if v.abs() >= theta {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        expect.sort_unstable();
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        let out = engine.abs_above_theta(&q, theta);
        assert_eq!(canonical_pairs(&out.entries), expect);
        // Both signs must actually occur for the fixture to mean anything.
        assert!(out.entries.iter().any(|e| e.value >= theta));
        assert!(out.entries.iter().any(|e| e.value <= -theta));
        // Values are the true signed inner products, bit-exact.
        for e in &out.entries {
            let v = q.dot_between(e.query as usize, &p, e.probe as usize);
            assert_eq!(v.to_bits(), e.value.to_bits());
        }
        assert_eq!(out.stats.counters.queries, 40);
        assert_eq!(out.stats.counters.results, out.entries.len() as u64);
    }

    #[test]
    #[should_panic(expected = "requires theta > 0")]
    fn abs_above_theta_rejects_nonpositive_theta() {
        let (q, p) = data(5, 20, 0.5, 1100);
        let mut engine = Lemp::new(&p);
        let _ = engine.abs_above_theta(&q, 0.0);
    }

    #[test]
    fn top_k_with_floor_matches_filtered_ground_truth() {
        let (q, p) = data(30, 200, 0.9, 1200);
        let k = 5;
        // Ground truth: full product per query, filter by floor, take k.
        let floor = {
            // A floor that bites: the median of the per-query 3rd-best
            // values, so some lists come back short and some full. Nudged
            // off the exact value so the comparison is not sensitive to the
            // one-ulp gap between `dot(q, p)` and `dot(q̄, p)·‖q‖` (value
            // spacing in this fixture is ~1e-3, far above the nudge).
            let (full, _) = Naive.row_top_k(&q, &p, 3);
            let mut thirds: Vec<f64> = full.iter().map(|l| l[2].score).collect();
            thirds.sort_by(f64::total_cmp);
            thirds[thirds.len() / 2] + 1e-7
        };
        let mut expect: Vec<Vec<(usize, f64)>> = Vec::new();
        for i in 0..q.len() {
            let mut row: Vec<(usize, f64)> = (0..p.len())
                .map(|j| (j, q.dot_between(i, &p, j)))
                .filter(|&(_, v)| v >= floor)
                .collect();
            row.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
            row.truncate(k);
            expect.push(row);
        }
        for threads in [1usize, 4] {
            let mut engine = Lemp::builder().sample_size(8).threads(threads).build(&p);
            let out = engine.row_top_k_with_floor(&q, k, floor);
            for (i, list) in out.lists.iter().enumerate() {
                assert_eq!(list.len(), expect[i].len(), "query {i} ({threads} threads)");
                for (item, &(id, v)) in list.iter().zip(&expect[i]) {
                    assert_eq!(item.id, id, "query {i}");
                    assert!((item.score - v).abs() <= 1e-9 * v.abs().max(1.0));
                    assert!(item.score >= floor, "reported value below floor");
                }
            }
        }
    }

    #[test]
    fn top_k_with_neg_infinity_floor_is_plain_top_k() {
        let (q, p) = data(20, 150, 0.8, 1300);
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        let plain = engine.row_top_k(&q, 4);
        let floored = engine.row_top_k_with_floor(&q, 4, f64::NEG_INFINITY);
        assert!(topk_equivalent(&plain.lists, &floored.lists, 1e-9));
    }

    #[test]
    fn top_k_with_unreachable_floor_is_empty_and_cheap() {
        let (q, p) = data(20, 150, 0.8, 1400);
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        let out = engine.row_top_k_with_floor(&q, 4, 1e12);
        assert!(out.lists.iter().all(Vec::is_empty));
        // The floor prunes every bucket after seeding: only the k warm-up
        // inner products per query are ever computed.
        assert!(out.stats.counters.candidates <= (4 * q.len()) as u64);
    }

    #[test]
    fn lazy_and_warmed_top_k_agree_on_lists_and_candidates() {
        // LEMP-L is never tuned, so the lazy driver (seeding each query
        // once, then indexing lazily) and the warmed one run the same
        // sweep: same lists, same candidates, the k seed dots counted once.
        let (q, p) = data(40, 300, 1.0, 1500);
        for (k, floor) in [(1, f64::NEG_INFINITY), (5, f64::NEG_INFINITY), (5, 0.5), (400, -1.0)] {
            let mut lazy = Lemp::builder().variant(LempVariant::L).build(&p);
            let a = lazy.row_top_k_with_floor(&q, k, floor);
            let mut warmed = Lemp::builder().variant(LempVariant::L).build(&p);
            warmed.warm(&q, WarmGoal::TopK(k));
            let mut scratch = warmed.make_scratch();
            let b = warmed.row_top_k_with_floor_shared(&q, k, floor, &mut scratch);
            assert!(topk_equivalent(&a.lists, &b.lists, 0.0), "k={k} floor={floor}");
            assert_eq!(a.stats.counters.candidates, b.stats.counters.candidates, "k={k}");
            // Every query pays at least its k seed dots.
            let seeds = (q.len() * k.min(p.len())) as u64;
            assert!(a.stats.counters.candidates >= seeds, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let p = GeneratorConfig::gaussian(20, 8, 0.5).generate(1);
        let q = GeneratorConfig::gaussian(5, 4, 0.5).generate(2);
        let mut engine = Lemp::new(&p);
        let _ = engine.above_theta(&q, 0.5);
    }
}
