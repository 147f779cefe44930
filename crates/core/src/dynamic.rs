//! Dynamic probe maintenance: insert and remove probe vectors without
//! rebuilding the engine.
//!
//! The paper preprocesses a *static* probe matrix (Alg. 1, lines 1–6). In
//! production deployments of the motivating applications the probe side
//! churns — items enter and leave a recommender catalog, facts are added to
//! an open-IE store — so a practical engine must absorb edits cheaply. This
//! module extends LEMP's bucket structure with incremental maintenance:
//!
//! * **Insert**: the new vector is routed to the bucket whose length range
//!   contains it (binary search over the bucket boundaries) and placed at
//!   its sorted position. When a vector falls *between* two buckets'
//!   ranges, a quality rule mirroring the paper's bucketization decides
//!   between joining a neighbour (if the ratio or min-size rule allows) and
//!   opening a fresh bucket. Buckets pushed past the cache cap split in
//!   half.
//! * **Remove**: the vector's bucket is located through its length (lengths
//!   are tracked per id, and computed with the same `kernels::norm` used by
//!   bucketization, so the lookup is exact), the row is cut out, and empty
//!   buckets disappear.
//!
//! # Index maintenance
//!
//! An edit keeps the touched bucket's already-built indexes current **in
//! place** instead of rebuilding them (the paper builds each bucket's
//! indexes once, lazily; an edit should not redo that work):
//!
//! * the COORD and INCR sorted lists splice the row in or out in O(r·n)
//!   and stay equal to a fresh build over the bucket's directions
//!   ([`crate::index`]);
//! * QUANT codes encode an inserted direction against the engine's one
//!   codebook — one nearest-centroid search per subspace — and record that
//!   probe's own distortion bound, so a direction the codebook fits badly
//!   loosens only its own pruning test ([`crate::quant`]); a fresh
//!   singleton bucket encodes its row the same way, a cache-cap split
//!   hands each half its share of the codes, and a removal cuts the
//!   probe's codes out;
//! * TA, cover-tree, L2AP and BLSH indexes are dropped and rebuild on the
//!   next query that needs them, like the paper's lazy construction.
//!
//! **Edits never train.** The codebook trains only at
//! [`DynamicLemp::warm`], in [`DynamicLemp::rebuild`] of a warm engine,
//! and on first QUANT use of a cold engine; every edit encodes against it,
//! so a serving write lock is held for about the WAL append plus a splice.
//!
//! Two invariants survive every edit, and the test suite checks them after
//! randomized edit scripts:
//!
//! 1. *within-bucket order*: lengths are non-increasing and `max_len`/
//!    `min_len` are exact;
//! 2. *inter-bucket order*: each bucket's `min_len` is at least the next
//!    bucket's `max_len`, so the length axis remains partitioned and the
//!    binary-search locate stays sound.
//!
//! Incremental edits can degrade the *quality* of the bucketization (the
//! ratio rule may be violated by absorbed vectors, buckets may shrink below
//! the paper's minimum size) without ever affecting correctness.
//! [`DynamicLemp::fragmentation`] measures the degradation and
//! [`DynamicLemp::rebuild`] compacts back to the exact static layout while
//! preserving stable ids.

use lemp_linalg::{kernels, LinalgError, VectorStore};

use crate::adaptive::AdaptiveSelector;
use crate::algos::MethodScratch;
use crate::bucket::{Bucket, BucketPolicy, ProbeBuckets};
use crate::exec::{BuildClock, RunConfig};
use crate::persist::PersistError;
use crate::plan::{self, Engine, QueryPlan, QueryRequest, QueryResponse, Scratch};
use crate::runner::{self, AboveThetaOutput, TopKOutput};
use crate::tuner;
use crate::variant::TunedParams;
use crate::{Lemp, WarmGoal, WarmReport, WarmState};

/// A LEMP engine over a mutable probe set.
///
/// Probe ids are *stable handles*: the ids reported in query results refer
/// to insertion order (the initial vectors get `0..n`, each insert returns
/// the next id) and never shift when other probes are removed.
///
/// # Example
///
/// ```
/// use lemp_core::dynamic::DynamicLemp;
/// use lemp_core::{BucketPolicy, RunConfig};
/// use lemp_linalg::VectorStore;
///
/// let probes = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let mut engine = DynamicLemp::new(&probes, BucketPolicy::default(), RunConfig::default());
/// let id = engine.insert(&[2.0, 2.0]).unwrap();
/// assert_eq!(id, 2);
/// assert!(engine.remove(0));
/// assert!(!engine.remove(0)); // already gone
///
/// let queries = VectorStore::from_rows(&[vec![1.0, 1.0]]).unwrap();
/// let top = engine.row_top_k(&queries, 1);
/// assert_eq!(top.lists[0][0].id, id as usize); // the inserted vector wins
/// ```
#[derive(Debug)]
pub struct DynamicLemp {
    policy: BucketPolicy,
    config: RunConfig,
    buckets: ProbeBuckets,
    /// Length per id (exact, from `kernels::norm`); valid while alive.
    id_len: Vec<f64>,
    alive: Vec<bool>,
    live: usize,
    /// Warm-query state ([`DynamicLemp::warm`]); edits keep it consistent
    /// by building whatever indexes the touched bucket lacks inside the
    /// edit.
    warm: Option<WarmState>,
}

impl DynamicLemp {
    /// Builds the engine over an initial probe set (ids `0..probes.len()`).
    pub fn new(probes: &VectorStore, policy: BucketPolicy, config: RunConfig) -> Self {
        let buckets = ProbeBuckets::build(probes, &policy);
        let id_len = probes.lengths();
        let alive = vec![true; probes.len()];
        let live = probes.len();
        Self { policy, config, buckets, id_len, alive, live, warm: None }
    }

    /// Wraps a prebuilt static engine (e.g. one loaded from a persisted
    /// image, see [`Lemp::load`]) as a dynamic engine: the preprocessed
    /// buckets and run configuration are taken over as-is, bucket ids
    /// become the stable ids, and `policy` governs future edits. This is
    /// how `lemp serve` turns a persisted engine into a servable one.
    pub fn from_engine(engine: Lemp, policy: BucketPolicy) -> Self {
        let (buckets, config) = engine.into_parts();
        let watermark = buckets
            .buckets()
            .iter()
            .flat_map(|b| b.ids.iter())
            .map(|&id| id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut id_len = vec![0.0f64; watermark];
        let mut alive = vec![false; watermark];
        for bucket in buckets.buckets() {
            for (lid, &id) in bucket.ids.iter().enumerate() {
                alive[id as usize] = true;
                id_len[id as usize] = bucket.lengths[lid];
            }
        }
        let live = alive.iter().filter(|&&a| a).count();
        Self { policy, config, buckets, id_len, alive, live, warm: None }
    }

    /// Overrides the retrieval worker-thread count (services pick their
    /// own threading model regardless of what a persisted image recorded).
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// **Warms the engine for shared (`&self`) querying**, exactly like
    /// [`Lemp::warm`]: tunes per-bucket parameters on `sample` and
    /// force-builds every bucket's indexes. Unlike the static engine,
    /// subsequent [`DynamicLemp::insert`]/[`DynamicLemp::remove`] calls
    /// *keep* the engine warm: the touched bucket's indexes are maintained
    /// or rebuilt inside the edit (under the caller's write exclusivity;
    /// see the module docs), so readers sharing `&self` never observe a
    /// missing index.
    ///
    /// # Panics
    /// If the sample dimensionality differs from the probe dimensionality.
    pub fn warm(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        let (state, report) = WarmState::build(&mut self.buckets, &self.config, sample, goal);
        self.warm = Some(state);
        report
    }

    /// Whether the engine is warm (the `*_shared` methods are usable).
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// A [`MethodScratch`] sized for the current largest bucket (one per
    /// querying thread). Scratch grows on demand, so it stays valid as
    /// edits reshape the buckets.
    pub fn make_scratch(&self) -> MethodScratch {
        MethodScratch::new(runner::max_bucket_len(&self.buckets))
    }

    pub(crate) fn warm_state(&self, caller: &str) -> &WarmState {
        self.warm.as_ref().unwrap_or_else(|| {
            panic!("{caller} requires a warmed engine: call DynamicLemp::warm first")
        })
    }

    /// The unified execution core behind every `*_shared` entry point —
    /// the same [`plan::run_request_single`] path [`Lemp`] uses, over the
    /// live buckets.
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

    /// Builds the indexes bucket `b` lacks after an edit — the sorted lists
    /// of a fresh or split bucket and the indexes edits don't maintain in
    /// place — so the warm invariant (every bucket fully indexed) survives
    /// the edit. QUANT codes are never built here: edits encode them.
    fn rewarm_bucket(&mut self, b: usize) {
        let params = match &self.warm {
            Some(w) => w.per_bucket[b],
            None => return,
        };
        let mut clock = BuildClock::default();
        let seed = runner::cfg_seed(&self.config, b);
        runner::warm_bucket(
            &mut self.buckets.buckets_vec_mut()[b],
            &params,
            &self.config,
            seed,
            &mut clock,
        );
    }

    /// Number of live probe vectors.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no probes are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.buckets.dim()
    }

    /// Whether `id` refers to a live probe.
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.alive.len() && self.alive[id as usize]
    }

    /// The id the next [`Self::insert`] will return — the id-space
    /// watermark (ids below it are allocated, live or dead; ids at or
    /// above it are free).
    pub fn next_id(&self) -> u32 {
        self.id_len.len() as u32
    }

    /// The run configuration this engine executes with.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// A fresh [`AdaptiveSelector`] sized for this engine's current
    /// bucketization, for the adaptive (bandit) drivers.
    pub fn adaptive_selector(&self, acfg: &crate::adaptive::AdaptiveConfig) -> AdaptiveSelector {
        AdaptiveSelector::new(*acfg, self.buckets.bucket_count(), self.buckets.dim())
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.bucket_count()
    }

    /// Inserts a probe vector; returns its stable id (the current
    /// watermark).
    ///
    /// # Errors
    /// [`LinalgError::DimMismatch`] on wrong dimensionality and
    /// [`LinalgError::NonFinite`] if any coordinate is NaN or infinite.
    pub fn insert(&mut self, v: &[f64]) -> Result<u32, LinalgError> {
        self.insert_with_id(self.next_id(), v)
    }

    /// Inserts a probe vector under a **caller-chosen id** at or above the
    /// current watermark; ids skipped over become permanently dead (they
    /// read as "never live"), so the id space may be sparse. This is how a
    /// sharded engine routes globally allocated ids to shards — every
    /// shard sees a strictly increasing but gappy id sequence — and how
    /// store replay re-applies an insert at its recorded id.
    ///
    /// # Errors
    /// [`LinalgError::DimMismatch`] on wrong dimensionality and
    /// [`LinalgError::NonFinite`] if any coordinate is NaN or infinite.
    ///
    /// # Panics
    /// If `id` is below the watermark ([`DynamicLemp::next_id`]) — ids are
    /// allocate-once, never reused — or the id space is exhausted.
    pub fn insert_with_id(&mut self, id: u32, v: &[f64]) -> Result<u32, LinalgError> {
        if v.len() != self.dim() {
            return Err(LinalgError::DimMismatch { left: self.dim(), right: v.len() });
        }
        if let Some(index) = v.iter().position(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite { index });
        }
        assert!(
            id as usize >= self.id_len.len(),
            "id {id} is below the watermark {} (ids are allocate-once)",
            self.id_len.len()
        );
        assert!(id < u32::MAX, "id space exhausted");
        let len = kernels::norm(v);

        let ratio = self.policy.length_ratio;
        let min_bucket = self.policy.min_bucket;
        let dim = self.dim();
        let codebook = self.buckets.codebook().cloned();
        let buckets = self.buckets.buckets_vec_mut();
        // Buckets partition the length axis in decreasing order; `pp` is the
        // count of buckets whose range lies fully above `len`.
        let pp = buckets.partition_point(|b| b.max_len >= len);
        let (target, created) = if buckets.is_empty() {
            buckets.push(singleton(id, v));
            (0, true)
        } else if pp == 0 {
            // Longer than every existing vector: join the front bucket if
            // the ratio rule tolerates stretching it, else open a new one.
            if buckets[0].min_len >= len * ratio || buckets[0].len() < min_bucket {
                buckets[0].insert_sorted(id, v, len);
                (0, false)
            } else {
                buckets.insert(0, singleton(id, v));
                (0, true)
            }
        } else {
            let cand = pp - 1; // last bucket with max_len ≥ len
            if len > buckets[cand].min_len {
                // Strictly inside the candidate's range: forced (the only
                // placement that keeps the length axis partitioned).
                buckets[cand].insert_sorted(id, v, len);
                (cand, false)
            } else if len >= buckets[cand].max_len * ratio || buckets[cand].len() < min_bucket {
                // At/below the candidate's bottom but within its ratio
                // window (or the candidate is undersized): absorb, exactly
                // like the static bucketization's greedy scan.
                buckets[cand].insert_sorted(id, v, len);
                (cand, false)
            } else if cand + 1 < buckets.len() && buckets[cand + 1].min_len >= len * ratio {
                // The next (shorter) bucket can take it as its new maximum
                // without breaking its own ratio window.
                buckets[cand + 1].insert_sorted(id, v, len);
                (cand + 1, false)
            } else {
                buckets.insert(cand + 1, singleton(id, v));
                (cand + 1, true)
            }
        };
        // A fresh bucket encodes against the engine's codebook, if any
        // (joined buckets encoded the row in `insert_sorted`).
        if let (true, Some(cb)) = (created, &codebook) {
            buckets[target].ensure_quant(cb);
        }
        // Cache cap: split an overgrown bucket in half (both keep order
        // and their share of the codes).
        let cap = self.policy.max_bucket(dim);
        let split = buckets[target].len() > cap;
        if split {
            let tail = buckets[target].split_off_tail();
            buckets.insert(target + 1, tail);
        }

        // Keep the warm state aligned and the warm invariant (all buckets
        // fully indexed) intact: build what the edit left missing now,
        // while the caller holds exclusive access.
        if let Some(w) = &mut self.warm {
            if created {
                w.per_bucket.insert(target, TunedParams::default());
            }
            if split {
                let params = w.per_bucket[target];
                w.per_bucket.insert(target + 1, params);
            }
        }
        if self.warm.is_some() {
            self.rewarm_bucket(target);
            if split {
                self.rewarm_bucket(target + 1);
            }
        }

        // Pad the id space up to `id` with dead filler (zeroed pages stay
        // lazy), then allocate it.
        self.id_len.resize(id as usize, 0.0);
        self.alive.resize(id as usize, false);
        self.id_len.push(len);
        self.alive.push(true);
        self.live += 1;
        let live = self.live;
        self.buckets.set_total(live);
        Ok(id)
    }

    /// Removes the probe with the given id; returns whether it was live.
    pub fn remove(&mut self, id: u32) -> bool {
        if !self.contains(id) {
            return false;
        }
        let len = self.id_len[id as usize];
        let buckets = self.buckets.buckets_vec_mut();
        // First bucket whose range reaches down to `len`.
        let start = buckets.partition_point(|b| b.min_len > len);
        let mut found = None;
        for (bi, bucket) in buckets.iter().enumerate().skip(start) {
            if bucket.max_len < len {
                break;
            }
            if let Some(lid) = bucket.ids.iter().position(|&x| x == id) {
                found = Some((bi, lid));
                break;
            }
        }
        let (bi, lid) = found.expect("live id must be present in a bucket");
        buckets[bi].remove_at(lid);
        let dropped = buckets[bi].is_empty();
        if dropped {
            buckets.remove(bi);
        }
        // Warm maintenance: drop the emptied bucket's slot, or build what
        // the edit left missing.
        if dropped {
            if let Some(w) = &mut self.warm {
                w.per_bucket.remove(bi);
            }
        } else if self.warm.is_some() {
            self.rewarm_bucket(bi);
        }
        self.alive[id as usize] = false;
        self.live -= 1;
        let live = self.live;
        self.buckets.set_total(live);
        true
    }

    /// The live probes as `(stable ids, vectors)`, in ascending id order.
    pub fn live_vectors(&self) -> (Vec<u32>, VectorStore) {
        let mut pairs: Vec<(u32, usize, usize)> = Vec::with_capacity(self.live);
        for (bi, bucket) in self.buckets.buckets().iter().enumerate() {
            for (lid, &id) in bucket.ids.iter().enumerate() {
                pairs.push((id, bi, lid));
            }
        }
        pairs.sort_unstable_by_key(|&(id, _, _)| id);
        let mut store = VectorStore::empty(self.dim()).expect("dim > 0");
        let mut ids = Vec::with_capacity(pairs.len());
        for (id, bi, lid) in pairs {
            ids.push(id);
            store.push(self.buckets.buckets()[bi].origs.vector(lid)).expect("same dimensionality");
        }
        (ids, store)
    }

    /// Fraction of buckets that are *undersized* (below the policy's
    /// minimum bucket size), the signature damage of incremental edits:
    /// out-of-range inserts open singleton buckets and removals shrink
    /// existing ones. The static bucketization produces at most one
    /// undersized bucket (the last), so this is ≈ 0 right after
    /// construction or [`Self::rebuild`] and grows with edit churn.
    pub fn fragmentation(&self) -> f64 {
        let n = self.buckets.bucket_count();
        if n == 0 {
            return 0.0;
        }
        let undersized =
            self.buckets.buckets().iter().filter(|b| b.len() < self.policy.min_bucket).count();
        undersized as f64 / n as f64
    }

    /// Rebuilds the bucketization from scratch (compaction). Stable ids are
    /// preserved; all lazy indexes are dropped and rebuild on demand. A
    /// warm engine stays warm — every bucket of the compacted layout is
    /// re-indexed before the call returns, and a quantized one trains its
    /// codebook anew — but the tuned per-bucket parameters reset to
    /// defaults (the old buckets no longer exist); call
    /// [`DynamicLemp::warm`] again to re-tune. Under
    /// [`RunConfig::quantize_force`] every encoded bucket keeps scanning
    /// through QUANT, as the forced tuner routes it.
    pub fn rebuild(&mut self) {
        let (ids, store) = self.live_vectors();
        let mut rebuilt = ProbeBuckets::build(&store, &self.policy);
        // `build` numbered the rows 0..live; map back to stable ids.
        for bucket in rebuilt.buckets_mut() {
            for slot in &mut bucket.ids {
                *slot = ids[*slot as usize];
            }
        }
        self.buckets = rebuilt;
        self.buckets.set_total(self.live);
        if self.warm.is_some() {
            let mut per_bucket = vec![TunedParams::default(); self.buckets.bucket_count()];
            let mut clock = BuildClock::default();
            runner::prebuild_all(&mut self.buckets, &self.config, &per_bucket, &mut clock);
            if self.config.quantize_force {
                for (params, bucket) in per_bucket.iter_mut().zip(self.buckets.buckets()) {
                    params.quant = tuner::quant_ready(bucket);
                }
            }
            if let Some(w) = &mut self.warm {
                w.per_bucket = per_bucket;
            }
        }
    }

    /// Solves Above-θ over the live probes (ids in the result are stable).
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

    /// Solves Row-Top-k over the live probes (ids in the result are
    /// stable).
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

    /// [`DynamicLemp::above_theta`] through `&self` over a warmed engine,
    /// with a caller-owned scratch — the hot path of `lemp-serve`, where
    /// many reader threads share one engine behind an `RwLock` whose write
    /// side is only taken by probe edits.
    ///
    /// # Panics
    /// If the engine is not warmed ([`DynamicLemp::warm`]) or on
    /// query/probe dimensionality mismatch.
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

    /// [`DynamicLemp::row_top_k`] through `&self` over a warmed engine.
    ///
    /// # Panics
    /// If the engine is not warmed ([`DynamicLemp::warm`]) or on
    /// query/probe dimensionality mismatch.
    pub fn row_top_k_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        scratch: &mut MethodScratch,
    ) -> TopKOutput {
        self.row_top_k_with_floor_shared(queries, k, f64::NEG_INFINITY, scratch)
    }

    /// [`DynamicLemp::row_top_k_with_floor`] through `&self` over a warmed
    /// engine.
    ///
    /// # Panics
    /// If the engine is not warmed ([`DynamicLemp::warm`]) or on
    /// query/probe dimensionality mismatch.
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

    /// [`DynamicLemp::abs_above_theta`] through `&self` over a warmed
    /// engine.
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

    /// Solves **|Above-θ|** (`|qᵀp| ≥ theta`, `theta > 0`) over the live
    /// probes, as [`crate::Lemp::abs_above_theta`] does for the static
    /// engine.
    ///
    /// # Panics
    /// If `theta ≤ 0` or on dimensionality mismatch.
    pub fn abs_above_theta(&mut self, queries: &VectorStore, theta: f64) -> AboveThetaOutput {
        crate::abs_above_theta_via(queries, theta, |q| self.above_theta(q, theta))
    }

    /// **Row-Top-k with a score floor** over the live probes, as
    /// [`crate::Lemp::row_top_k_with_floor`] does for the static engine.
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

    /// The underlying buckets (inspection / tests).
    pub fn buckets(&self) -> &ProbeBuckets {
        &self.buckets
    }

    /// Probe-side memory residency (full-precision vs quantized bytes),
    /// as [`crate::Lemp::memory_usage`].
    pub fn memory_usage(&self) -> crate::bucket::MemoryUsage {
        self.buckets.memory_usage()
    }

    /// Serializes the dynamic engine: bucketization policy, run
    /// configuration, the id-space watermark and the bucket contents.
    /// Stable ids survive the round trip; dead ids stay dead (they are
    /// reconstructed as "absent from every bucket").
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> Result<(), PersistError> {
        use crate::persist::{
            write_bucket_section, write_config, write_f64, write_quant_section, write_u64,
        };
        let mut w = std::io::BufWriter::new(writer);
        // Same backward-compat rule as the static format: quantization off
        // → byte-identical LEMPDYN1 image; on → LEMPDYN3 with the
        // quantized section appended after the bucket section.
        let quantized = self.config.quantize_bits > 0;
        w.write_all(if quantized { DYN_MAGIC3 } else { DYN_MAGIC })?;
        write_f64(&mut w, self.policy.length_ratio)?;
        write_u64(&mut w, self.policy.min_bucket as u64)?;
        write_u64(&mut w, self.policy.cache_bytes as u64)?;
        write_u64(&mut w, self.policy.seed)?;
        write_config(&mut w, &self.config)?;
        write_u64(&mut w, self.id_len.len() as u64)?;
        write_bucket_section(&mut w, &self.buckets)?;
        if quantized {
            write_quant_section(&mut w, self.config.quantize_bits, &self.buckets)?;
        }
        use std::io::Write;
        w.flush()?;
        Ok(())
    }

    /// Saves the dynamic engine to a file (see [`DynamicLemp::write_to`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Deserializes an engine written by [`DynamicLemp::write_to`].
    ///
    /// The per-id length table and liveness flags are reconstructed from
    /// the bucket contents (lengths recompute bit-identically via
    /// `kernels::norm`), so only the id-space watermark is stored.
    ///
    /// # Errors
    /// [`PersistError::Format`] on anything a corrupted file could break:
    /// the shared bucket-section validations plus id-space violations
    /// (ids at/above the watermark, duplicate ids across buckets).
    pub fn read_from<R: std::io::Read>(reader: R) -> Result<Self, PersistError> {
        use crate::persist::{
            expect_eof, quant_section_of, read_bucket_section, read_config, read_f64,
            read_quant_section, read_u64,
        };
        let mut r = std::io::BufReader::new(reader);
        let mut magic = [0u8; 8];
        std::io::Read::read_exact(&mut r, &mut magic)
            .map_err(|_| PersistError::Format("file too short for magic".into()))?;
        let version = quant_section_of(&magic, [DYN_MAGIC, DYN_MAGIC2, DYN_MAGIC3])?;
        let policy = BucketPolicy {
            length_ratio: read_f64(&mut r, "length_ratio")?,
            min_bucket: read_u64(&mut r, "min_bucket")? as usize,
            cache_bytes: read_u64(&mut r, "cache_bytes")? as usize,
            seed: read_u64(&mut r, "policy seed")?,
        };
        if !(policy.length_ratio > 0.0 && policy.length_ratio <= 1.0) || policy.min_bucket == 0 {
            return Err(PersistError::Format("invalid bucket policy".into()));
        }
        let config = read_config(&mut r)?;
        let id_space = read_u64(&mut r, "id space")? as usize;
        // Ids are u32, so a watermark past 2^32 can only be corruption.
        // The id-space tables are allocated only *after* the bucket section
        // has parsed (so the common corruption — a broken bucket — errors
        // first), and through `try_reserve` so even a plausible-looking but
        // absurd watermark becomes a Format error instead of an allocator
        // abort.
        if id_space > (1 << 32) {
            return Err(PersistError::Format(format!(
                "id-space watermark {id_space} exceeds the u32 id range"
            )));
        }
        let mut buckets = read_bucket_section(&mut r)?;
        let mut config = config;
        config.quantize_bits = read_quant_section(&mut r, &mut buckets, version)?;
        expect_eof(&mut r)?;

        // Probe allocatability first (graceful Format error instead of an
        // allocator abort), then build through `vec![zero; n]`, whose
        // zeroed-allocation path maps lazy pages — dead-id slots in a
        // sparse id space cost address space, not resident memory.
        {
            let mut probe: Vec<f64> = Vec::new();
            probe.try_reserve_exact(id_space).map_err(|_| {
                PersistError::Format(format!("id-space watermark {id_space} is unallocatable"))
            })?;
        }
        let mut id_len = vec![0.0f64; id_space];
        let mut alive = vec![false; id_space];
        for bucket in buckets.buckets() {
            for (lid, &id) in bucket.ids.iter().enumerate() {
                let id = id as usize;
                if id >= id_space {
                    return Err(PersistError::Format(format!(
                        "id {id} at/above the id-space watermark {id_space}"
                    )));
                }
                if alive[id] {
                    return Err(PersistError::Format(format!("duplicate id {id}")));
                }
                alive[id] = true;
                id_len[id] = bucket.lengths[lid];
            }
        }
        let live = buckets.total();
        Ok(Self { policy, config, buckets, id_len, alive, live, warm: None })
    }

    /// Loads a dynamic engine from a file (see [`DynamicLemp::read_from`]).
    ///
    /// # Errors
    /// Same conditions as [`DynamicLemp::read_from`].
    pub fn load(path: &std::path::Path) -> Result<Self, PersistError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

impl Engine for DynamicLemp {
    fn plan(&self, request: &QueryRequest) -> QueryPlan {
        let warm = self.warm_state("Engine::plan");
        plan::plan_single(
            &plan::SinglePrepared {
                buckets: &self.buckets,
                config: &self.config,
                per_bucket: &warm.per_bucket,
                blsh: warm.blsh_table.as_ref(),
            },
            request,
        )
    }

    fn execute(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse {
        let warm = self.warm_state("Engine::execute");
        plan::execute_single(
            &self.buckets,
            &self.config,
            warm.blsh_table.as_ref(),
            plan,
            queries,
            scratch,
        )
    }

    fn query_scratch(&self) -> Scratch {
        Scratch::single(self.make_scratch())
    }

    fn probes(&self) -> usize {
        self.live
    }

    fn dim(&self) -> usize {
        DynamicLemp::dim(self)
    }

    fn is_warm(&self) -> bool {
        DynamicLemp::is_warm(self)
    }

    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        DynamicLemp::warm(self, sample, goal)
    }
}

const DYN_MAGIC: &[u8; 8] = b"LEMPDYN1";
/// Quantized images with per-bucket codebooks: read, never written.
const DYN_MAGIC2: &[u8; 8] = b"LEMPDYN2";
const DYN_MAGIC3: &[u8; 8] = b"LEMPDYN3";

/// A fresh single-vector bucket.
fn singleton(id: u32, v: &[f64]) -> Bucket {
    let origs = VectorStore::from_rows(&[v.to_vec()]).expect("caller validated v");
    Bucket::from_sorted_rows(vec![id], origs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LempVariant;
    use lemp_baselines::types::canonical_pairs;
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture(n: usize, seed: u64) -> VectorStore {
        GeneratorConfig::gaussian(n, 8, 1.0).generate(seed)
    }

    fn engine(probes: &VectorStore) -> DynamicLemp {
        let config = RunConfig { sample_size: 8, ..Default::default() };
        let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
        DynamicLemp::new(probes, policy, config)
    }

    #[test]
    fn abs_and_floor_apis_are_exact_after_churn() {
        let probes = fixture(300, 4200);
        let queries = GeneratorConfig::gaussian(25, 8, 0.8).generate(4300);
        let mut e = engine(&probes);
        // Churn: drop every third probe, insert a few fresh ones.
        for id in (0..300u32).step_by(3) {
            assert!(e.remove(id));
        }
        let extra = fixture(20, 4400);
        for i in 0..extra.len() {
            e.insert(extra.vector(i)).unwrap();
        }
        // Ground truth over the live set, queried through a fresh engine
        // with ids mapped back to stable ids.
        let (ids, live) = e.live_vectors();
        let theta = 0.9;
        let mut expect_abs: Vec<(u32, u32)> = Vec::new();
        for i in 0..queries.len() {
            for (j, &id) in ids.iter().enumerate() {
                if queries.dot_between(i, &live, j).abs() >= theta {
                    expect_abs.push((i as u32, id));
                }
            }
        }
        expect_abs.sort_unstable();
        let out = e.abs_above_theta(&queries, theta);
        assert_eq!(canonical_pairs(&out.entries), expect_abs);
        assert!(out.entries.iter().any(|en| en.value < 0.0), "two-sided fixture");

        // Floored top-k against the brute-force filtered ranking.
        let k = 3;
        let floor = 0.7;
        let out = e.row_top_k_with_floor(&queries, k, floor);
        for (i, list) in out.lists.iter().enumerate() {
            let mut row: Vec<(u32, f64)> = (0..live.len())
                .map(|j| (ids[j], queries.dot_between(i, &live, j)))
                .filter(|&(_, v)| v >= floor)
                .collect();
            row.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
            row.truncate(k);
            let got: Vec<u32> = list.iter().map(|it| it.id as u32).collect();
            let want: Vec<u32> = row.iter().map(|&(id, _)| id).collect();
            assert_eq!(got, want, "query {i}");
        }
    }

    /// Checks both maintenance invariants on the current bucket state.
    fn check_invariants(e: &DynamicLemp) {
        let mut prev_min = f64::INFINITY;
        let mut seen = std::collections::BTreeSet::new();
        for b in e.buckets().buckets() {
            assert!(!b.is_empty(), "empty bucket retained");
            assert!(
                b.max_len <= prev_min + 1e-15,
                "inter-bucket order broken: max {} after min {prev_min}",
                b.max_len
            );
            assert!((b.lengths[0] - b.max_len).abs() == 0.0);
            assert!((b.lengths[b.len() - 1] - b.min_len).abs() == 0.0);
            for w in b.lengths.windows(2) {
                assert!(w[0] >= w[1], "within-bucket order broken");
            }
            for (lid, &id) in b.ids.iter().enumerate() {
                assert!(e.contains(id), "dead id {id} in bucket");
                assert_eq!(e.id_len[id as usize], b.lengths[lid], "stale length for id {id}");
                assert!(seen.insert(id), "id {id} in two buckets");
            }
            prev_min = b.min_len;
        }
        assert_eq!(seen.len(), e.len(), "live count disagrees with bucket contents");
    }

    #[test]
    fn insert_assigns_sequential_stable_ids() {
        let probes = fixture(20, 1);
        let mut e = engine(&probes);
        assert_eq!(e.next_id(), 20);
        let a = e.insert(&[1.0; 8]).unwrap();
        let b = e.insert(&[2.0; 8]).unwrap();
        assert_eq!((a, b), (20, 21));
        assert!(e.contains(a) && e.contains(b));
        assert_eq!(e.len(), 22);
        check_invariants(&e);
    }

    #[test]
    fn insert_validates_input() {
        let probes = fixture(10, 2);
        let mut e = engine(&probes);
        assert!(matches!(e.insert(&[1.0; 3]), Err(LinalgError::DimMismatch { .. })));
        let mut bad = vec![1.0; 8];
        bad[4] = f64::NAN;
        assert!(matches!(e.insert(&bad), Err(LinalgError::NonFinite { index: 4 })));
        assert_eq!(e.len(), 10, "failed inserts must not change the set");
    }

    #[test]
    fn remove_is_idempotent_and_updates_len() {
        let probes = fixture(15, 3);
        let mut e = engine(&probes);
        assert!(e.remove(7));
        assert!(!e.remove(7));
        assert!(!e.remove(999));
        assert_eq!(e.len(), 14);
        assert!(!e.contains(7));
        check_invariants(&e);
    }

    #[test]
    fn drain_everything_then_refill() {
        let probes = fixture(12, 4);
        let mut e = engine(&probes);
        for id in 0..12 {
            assert!(e.remove(id));
        }
        assert!(e.is_empty());
        assert_eq!(e.bucket_count(), 0);
        let q = fixture(3, 5);
        assert!(e.above_theta(&q, 0.1).entries.is_empty());
        let top = e.row_top_k(&q, 2);
        assert!(top.lists.iter().all(Vec::is_empty));
        // refill
        let id = e.insert(&[1.0; 8]).unwrap();
        assert_eq!(id, 12);
        assert_eq!(e.len(), 1);
        let top = e.row_top_k(&q, 1);
        assert!(top.lists.iter().all(|l| l.len() == 1 && l[0].id == 12));
        check_invariants(&e);
    }

    #[test]
    fn queries_agree_with_naive_after_edits() {
        let probes = fixture(120, 6);
        let mut e = engine(&probes);
        let mut rng = StdRng::seed_from_u64(7);
        // random edit script: 60 inserts, 50 removals of random live ids
        for _ in 0..60 {
            let v: Vec<f64> =
                (0..8).map(|_| 2.0 * lemp_data::rng::standard_normal(&mut rng)).collect();
            e.insert(&v).unwrap();
        }
        let mut removed = 0;
        while removed < 50 {
            let id = rng.random_range(0..e.next_id());
            if e.remove(id) {
                removed += 1;
            }
        }
        check_invariants(&e);

        let (ids, store) = e.live_vectors();
        let queries = fixture(25, 8);
        let theta = 2.0;
        let (naive_entries, _) = Naive.above_theta(&queries, &store, theta);
        let expect: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> =
                naive_entries.iter().map(|en| (en.query, ids[en.probe as usize])).collect();
            v.sort_unstable();
            v
        };
        let got = e.above_theta(&queries, theta);
        assert_eq!(canonical_pairs(&got.entries), expect);

        // Row-Top-k: compare score multisets per query.
        let k = 5;
        let (naive_topk, _) = Naive.row_top_k(&queries, &store, k);
        let dynamic_topk = e.row_top_k(&queries, k);
        assert!(lemp_baselines::types::topk_equivalent(&dynamic_topk.lists, &naive_topk, 1e-9));
    }

    #[test]
    fn inserts_split_buckets_past_the_cache_cap() {
        // Tiny cache: cap is small, repeated equal-length inserts must
        // split instead of growing one bucket forever.
        let policy = BucketPolicy { min_bucket: 2, cache_bytes: 4096, ..Default::default() };
        let config = RunConfig { sample_size: 4, ..Default::default() };
        let probes = fixture(10, 9);
        let mut e = DynamicLemp::new(&probes, policy, config);
        let cap = policy.max_bucket(8);
        for _ in 0..6 * cap {
            e.insert(&[1.0; 8]).unwrap();
        }
        check_invariants(&e);
        for b in e.buckets().buckets() {
            assert!(b.len() <= cap, "bucket of {} exceeds cap {cap}", b.len());
        }
        assert!(e.bucket_count() >= 6);
    }

    #[test]
    fn out_of_range_inserts_open_new_buckets() {
        let probes = fixture(40, 10);
        let mut e = engine(&probes);
        let before = e.bucket_count();
        // Vastly longer than anything: must not be absorbed into the front
        // bucket (ratio rule) once that bucket is at min size.
        e.insert(&[1e6; 8]).unwrap();
        assert!(e.bucket_count() >= before);
        assert!((e.buckets().buckets()[0].max_len - 1e6 * (8f64).sqrt()).abs() < 1.0);
        // Vastly shorter: lands at the tail.
        e.insert(&[1e-9; 8]).unwrap();
        let last = e.buckets().buckets().last().unwrap();
        assert!(last.min_len < 1e-6);
        check_invariants(&e);
    }

    #[test]
    fn rebuild_compacts_and_preserves_results() {
        let probes = fixture(100, 11);
        let mut e = engine(&probes);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..80 {
            let scale = 10f64.powf(rng.random_range(-2.0..2.0));
            let v: Vec<f64> =
                (0..8).map(|_| scale * lemp_data::rng::standard_normal(&mut rng)).collect();
            e.insert(&v).unwrap();
        }
        for id in (0..100).step_by(3) {
            e.remove(id);
        }
        let queries = fixture(10, 13);
        let before = canonical_pairs(&e.above_theta(&queries, 1.5).entries);
        let frag_before = e.fragmentation();
        e.rebuild();
        check_invariants(&e);
        let after = canonical_pairs(&e.above_theta(&queries, 1.5).entries);
        assert_eq!(before, after, "rebuild changed query results");
        assert!(
            e.fragmentation() <= frag_before + 1e-12,
            "rebuild must not worsen fragmentation ({frag_before} -> {})",
            e.fragmentation()
        );
    }

    #[test]
    fn live_vectors_roundtrip_exactly() {
        let probes = fixture(30, 14);
        let mut e = engine(&probes);
        e.remove(5);
        e.remove(17);
        let added = e.insert(&[0.5; 8]).unwrap();
        let (ids, store) = e.live_vectors();
        assert_eq!(ids.len(), 29);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be ascending");
        assert!(!ids.contains(&5) && !ids.contains(&17));
        assert!(ids.contains(&added));
        for (row, &id) in ids.iter().enumerate() {
            if id < 30 {
                assert_eq!(store.vector(row), probes.vector(id as usize), "id {id} mutated");
            } else {
                assert_eq!(store.vector(row), &[0.5; 8]);
            }
        }
    }

    #[test]
    fn persistence_roundtrips_after_edits() {
        let probes = fixture(60, 20);
        let mut e = engine(&probes);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let v: Vec<f64> =
                (0..8).map(|_| 3.0 * lemp_data::rng::standard_normal(&mut rng)).collect();
            e.insert(&v).unwrap();
        }
        for id in (0..60).step_by(4) {
            e.remove(id);
        }
        let mut buf = Vec::new();
        e.write_to(&mut buf).unwrap();
        let mut loaded = DynamicLemp::read_from(&buf[..]).unwrap();
        check_invariants(&loaded);
        assert_eq!(loaded.len(), e.len());
        assert_eq!(loaded.next_id(), e.next_id());
        assert_eq!(loaded.bucket_count(), e.bucket_count());
        // dead ids stay dead, live ids stay live
        for id in 0..e.next_id() {
            assert_eq!(loaded.contains(id), e.contains(id), "liveness of id {id} changed");
        }
        // identical answers and continued edits
        let queries = fixture(10, 22);
        let a = e.above_theta(&queries, 1.0);
        let b = loaded.above_theta(&queries, 1.0);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
        let id_e = e.insert(&[1.0; 8]).unwrap();
        let id_l = loaded.insert(&[1.0; 8]).unwrap();
        assert_eq!(id_e, id_l, "id watermark diverged after load");
        assert!(loaded.remove(id_l));
    }

    /// Asserts every built COORD/INCR index equals a fresh build over its
    /// bucket's directions, and every bucket's QUANT codes index the
    /// engine's codebook and equal a fresh encode against it (and what an
    /// image of them reloads to).
    fn check_indexes_match_fresh_builds(e: &DynamicLemp) {
        use crate::index::{ColumnIndex, RowIndex};
        use crate::quant::QuantizedBucket;
        use std::sync::Arc;
        for (bi, b) in e.buckets().buckets().iter().enumerate() {
            if let Some(coord) = &b.indexes.coord {
                let fresh = ColumnIndex::build(&b.dirs);
                assert_eq!(format!("{coord:?}"), format!("{fresh:?}"), "bucket {bi}: COORD");
            }
            if let Some(incr) = &b.indexes.incr {
                let fresh = RowIndex::build(&b.dirs);
                assert_eq!(format!("{incr:?}"), format!("{fresh:?}"), "bucket {bi}: INCR");
            }
            if let Some(q) = &b.indexes.quant {
                let cb = e.buckets().codebook().expect("codes imply the engine's codebook");
                assert!(Arc::ptr_eq(q.codebook(), cb), "bucket {bi}: a foreign codebook");
                assert_eq!(q, &QuantizedBucket::encode(Arc::clone(cb), &b.dirs), "bucket {bi}");
                let reloaded =
                    QuantizedBucket::from_codes(Arc::clone(cb), q.codes().clone(), &b.dirs)
                        .unwrap_or_else(|err| panic!("bucket {bi}: {err}"));
                assert_eq!(q, &reloaded, "bucket {bi}: QUANT");
            }
        }
    }

    /// Where a live id sits: `(bucket, local id, bucket length)`.
    fn locate(e: &DynamicLemp, id: u32) -> (usize, usize, usize) {
        e.buckets()
            .buckets()
            .iter()
            .enumerate()
            .find_map(|(bi, b)| b.ids.iter().position(|&x| x == id).map(|lid| (bi, lid, b.len())))
            .expect("live id is in a bucket")
    }

    /// The stamp of the engine's codebook.
    fn stamp(e: &DynamicLemp) -> u64 {
        e.buckets().codebook().expect("a trained codebook").stamp()
    }

    #[test]
    fn incremental_indexes_equal_a_fresh_build() {
        // 3-bit codes: k = 8 centroids, so draining a bucket below 8 probes
        // leaves fewer probes than centroids — an ordinary state.
        let probes = fixture(160, 30);
        let config = RunConfig { sample_size: 8, quantize_bits: 3, ..Default::default() };
        // A wide ratio window, so buckets absorb new longest and shortest
        // vectors instead of opening singletons.
        let policy = BucketPolicy { length_ratio: 0.5, min_bucket: 12, ..Default::default() };
        let mut e = DynamicLemp::new(&probes, policy, config);
        e.warm(&fixture(12, 31), crate::WarmGoal::TopK(3));
        check_indexes_match_fresh_builds(&e);
        let trained = stamp(&e);
        let mut rng = StdRng::seed_from_u64(32);
        let (mut fronts, mut backs, mut encoded) = (0, 0, 0);
        for script in 0..6 {
            for _ in 0..25 {
                let buckets = e.buckets().buckets();
                let b = &buckets[rng.random_range(0..buckets.len())];
                let row = |lid: usize| b.origs.vector(lid).to_vec();
                let v: Vec<f64> = match rng.random_range(0..4) {
                    // A new longest vector (front of the first bucket) or
                    // a bucket's new shortest one (its back).
                    0 => buckets[0].origs.vector(0).iter().map(|x| x * 1.000_001).collect(),
                    1 => row(b.len() - 1).iter().map(|x| x * 0.999_999).collect(),
                    // Repeated values across lids: an exact duplicate.
                    2 => row(rng.random_range(0..b.len())),
                    // Exact zeros of both signs on half the coordinates.
                    _ => row(rng.random_range(0..b.len()))
                        .iter()
                        .enumerate()
                        .map(|(f, &x)| match f % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => x,
                        })
                        .collect(),
                };
                let count = e.bucket_count();
                let id = e.insert(&v).unwrap();
                let (_, lid, len) = locate(&e, id);
                fronts += usize::from(lid == 0 && len > 1);
                backs += usize::from(lid + 1 == len && len > 1);
                // Absorbed by an existing bucket: encoded into its codes.
                encoded += usize::from(e.bucket_count() == count);
                assert_eq!(stamp(&e), trained, "an insert trained");
            }
            // Drain one bucket below the centroid count, then remove at
            // random: codes are cut out, nothing retrains.
            let victim = e.buckets().buckets()[script % e.bucket_count()].ids.clone();
            for &id in victim.iter().skip(4) {
                assert!(e.remove(id));
            }
            for _ in 0..15 {
                let id = rng.random_range(0..e.next_id());
                e.remove(id);
            }
            assert_eq!(stamp(&e), trained, "script {script}: a removal trained");
            check_invariants(&e);
            check_indexes_match_fresh_builds(&e);
            assert!(
                e.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
                "script {script}: a warm engine keeps every bucket quantized"
            );
        }
        assert!(fronts > 0 && backs > 0, "scripts must edit both bucket ends");
        assert!(encoded > 0, "scripts must encode into existing buckets");
    }

    #[test]
    fn edits_encode_against_one_codebook_and_never_train() {
        // A small cache cap forces splits; out-of-range lengths open
        // singletons; drains leave buckets of one probe.
        let probes = fixture(150, 33);
        let config = RunConfig { sample_size: 8, quantize_bits: 8, ..Default::default() };
        let policy = BucketPolicy { min_bucket: 6, cache_bytes: 8 << 10, ..Default::default() };
        let cap = policy.max_bucket(8);
        let mut e = DynamicLemp::new(&probes, policy, config);
        e.warm(&fixture(12, 34), crate::WarmGoal::TopK(3));
        let trained = stamp(&e);
        let mut rng = StdRng::seed_from_u64(35);
        let (mut singletons, mut splits, mut ones) = (0, 0, 0);
        for step in 0..120 {
            let count = e.bucket_count();
            match step % 4 {
                // Far outside every length range: a fresh singleton (or a
                // join of the previous one while it is undersized).
                0 => {
                    let scale =
                        10f64.powi(if step % 8 == 0 { 3 + step / 8 } else { -3 - step / 8 });
                    let v: Vec<f64> = (0..8).map(|_| scale * rng.random_range(-1.0..1.0)).collect();
                    e.insert(&v).unwrap();
                    singletons += usize::from(e.bucket_count() == count + 1);
                }
                // Copies of one row until its bucket passes the cap.
                1 => {
                    let b = &e.buckets().buckets()[rng.random_range(0..count)];
                    let v = b.origs.vector(rng.random_range(0..b.len())).to_vec();
                    for _ in 0..=cap {
                        e.insert(&v).unwrap();
                        if e.bucket_count() > count {
                            splits += 1;
                            break;
                        }
                    }
                }
                // Drain a bucket down to one probe.
                2 => {
                    let b = &e.buckets().buckets()[rng.random_range(0..count)];
                    for id in b.ids.clone().into_iter().skip(1) {
                        assert!(e.remove(id));
                    }
                    ones += 1;
                }
                _ => {
                    let id = rng.random_range(0..e.next_id());
                    e.remove(id);
                }
            }
            assert_eq!(stamp(&e), trained, "step {step}: an edit trained");
            check_invariants(&e);
            check_indexes_match_fresh_builds(&e);
            assert!(e.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()));
        }
        assert!(singletons >= 3 && splits >= 10 && ones >= 10, "{singletons} {splits} {ones}");
        // Answers stay exact against Naive over the live set.
        let (ids, store) = e.live_vectors();
        let queries = fixture(15, 36);
        let (naive, _) = Naive.above_theta(&queries, &store, 1.0);
        let mut expect: Vec<(u32, u32)> =
            naive.iter().map(|en| (en.query, ids[en.probe as usize])).collect();
        expect.sort_unstable();
        assert_eq!(canonical_pairs(&e.above_theta(&queries, 1.0).entries), expect);
        // A rebuild trains the compacted layout's codebook anew.
        e.rebuild();
        assert_ne!(stamp(&e), trained);
        check_indexes_match_fresh_builds(&e);
    }

    #[test]
    fn quantized_persistence_roundtrips_after_edits() {
        let probes = fixture(120, 25);
        let config = RunConfig { sample_size: 8, quantize_bits: 8, ..Default::default() };
        let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
        let mut e = DynamicLemp::new(&probes, policy, config);
        let sample = fixture(12, 26);
        e.warm(&sample, crate::WarmGoal::TopK(3));
        let trained = stamp(&e);
        // Edits encode into the engine's codebook, never train.
        e.insert(&[2.5; 8]).unwrap();
        assert!(e.remove(3));
        // Directions unlike the Gaussian fixture, at lengths the existing
        // buckets absorb, until the image holds encoded-not-trained probes.
        let mut encoded = 0;
        for i in 0..16 {
            let len = kernels::norm(probes.vector(i * 7));
            let mut v = vec![0.0; 8];
            v[i % 8] = if i % 2 == 0 { len } else { -len };
            let count = e.bucket_count();
            e.insert(&v).unwrap();
            encoded += usize::from(e.bucket_count() == count);
        }
        assert!(encoded >= 5, "only {encoded} probes encoded into existing buckets");
        assert_eq!(stamp(&e), trained);
        assert!(
            e.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
            "warm quantized engine must keep codes through edits"
        );
        check_indexes_match_fresh_builds(&e);
        let mut buf = Vec::new();
        e.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPDYN3");
        let mut loaded = DynamicLemp::read_from(&buf[..]).unwrap();
        check_invariants(&loaded);
        assert_eq!(loaded.config().quantize_bits, 8);
        // The codebook and codes are restored without training (a loaded
        // codebook gets its own stamp); the per-probe bounds are
        // recomputed on load, equal to the ones the edits maintained.
        assert_eq!(loaded.buckets().codebook(), e.buckets().codebook());
        assert_ne!(stamp(&loaded), trained);
        for (a, b) in loaded.buckets().buckets().iter().zip(e.buckets().buckets()) {
            assert_eq!(a.indexes.quant, b.indexes.quant, "quant state must round-trip");
        }
        check_indexes_match_fresh_builds(&loaded);
        assert_eq!(loaded.memory_usage(), e.memory_usage());
        assert!(loaded.memory_usage().quantized_bytes > 0);
        // Warming the loaded engine keeps the loaded codebook.
        let loaded_stamp = stamp(&loaded);
        loaded.warm(&sample, crate::WarmGoal::TopK(3));
        assert_eq!(stamp(&loaded), loaded_stamp);
        let queries = fixture(10, 27);
        let x = e.above_theta(&queries, 1.0);
        let y = loaded.above_theta(&queries, 1.0);
        assert_eq!(canonical_pairs(&x.entries), canonical_pairs(&y.entries));
    }

    #[test]
    fn persistence_rejects_corruption() {
        let probes = fixture(20, 23);
        let e = engine(&probes);
        let mut buf = Vec::new();
        e.write_to(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(DynamicLemp::read_from(&bad[..]), Err(PersistError::Format(_))));

        // id watermark smaller than a stored id: offset of the id-space
        // word is magic(8) + policy(4×8) + config(1 + 3×8 + 3×8).
        let id_space_at = 8 + 32 + 1 + 48;
        let mut bad = buf.clone();
        bad[id_space_at..id_space_at + 8].copy_from_slice(&1u64.to_le_bytes());
        let err = DynamicLemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("watermark"), "unexpected error: {err}");

        // truncations
        for cut in [4usize, 20, id_space_at + 4, buf.len() - 3] {
            assert!(DynamicLemp::read_from(&buf[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // trailing bytes
        let mut bad = buf.clone();
        bad.push(0);
        assert!(DynamicLemp::read_from(&bad[..]).is_err());
    }

    #[test]
    fn persistence_file_roundtrip() {
        let probes = fixture(15, 24);
        let e = engine(&probes);
        let path =
            std::env::temp_dir().join(format!("lemp-dyn-persist-{}.eng", std::process::id()));
        e.save(&path).unwrap();
        let loaded = DynamicLemp::load(&path).unwrap();
        assert_eq!(loaded.len(), 15);
        std::fs::remove_file(&path).ok();
        assert!(matches!(DynamicLemp::load(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn works_with_every_exact_variant() {
        let probes = fixture(80, 15);
        let queries = fixture(10, 16);
        for variant in LempVariant::all() {
            if variant.is_approximate() {
                continue;
            }
            let config = RunConfig { variant, sample_size: 4, ..Default::default() };
            let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
            let mut e = DynamicLemp::new(&probes, policy, config);
            e.insert(&[3.0; 8]).unwrap();
            e.remove(0);
            let (ids, store) = e.live_vectors();
            let (expect, _) = Naive.above_theta(&queries, &store, 1.5);
            let expect_pairs: Vec<(u32, u32)> = {
                let mut v: Vec<(u32, u32)> =
                    expect.iter().map(|en| (en.query, ids[en.probe as usize])).collect();
                v.sort_unstable();
                v
            };
            let got = e.above_theta(&queries, 1.5);
            assert_eq!(
                canonical_pairs(&got.entries),
                expect_pairs,
                "{} diverges after edits",
                variant.name()
            );
        }
    }
}
