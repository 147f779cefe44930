//! Horizontal sharding: one logical LEMP engine over `S` independent
//! shard engines, with an exact merge layer.
//!
//! LEMP's bucketization (Sec. 3) partitions the probe vectors by length,
//! and nothing in the pruning logic requires all buckets to live in one
//! engine: any partition of the probe set can be queried shard-by-shard
//! and merged exactly. [`ShardedLemp`] exploits that for *shard-level
//! parallelism* — a single query batch fans out across every shard on the
//! engine's thread pool — and as the stepping stone toward multi-process
//! and multi-host deployments (each shard is a self-contained, separately
//! persistable [`DynamicLemp`]).
//!
//! # Routed edits
//!
//! Shards are dynamic engines, so the sharded engine absorbs probe churn:
//! [`ShardedLemp::insert`] allocates the next **global** id and routes the
//! vector to a shard deterministically
//! ([`ShardPolicyKind::route_insert`]: `id mod S` for round-robin and
//! explicit engines, fixed length bands captured at build time for
//! length-banded ones — the same id always lands on the same shard).
//! [`ShardedLemp::remove`] and [`ShardedLemp::rebuild`] forward to the
//! owning shard ([`ShardedLemp::owner_of`]). Global-id uniqueness holds by
//! construction (one watermark allocator, disjoint routing) and is still
//! enforced at the merge layer by [`ShardError::DuplicateGlobalId`] and at
//! load time by [`ShardedLemp::from_shards`]. Edits re-index only the
//! touched shard (warm shards stay warm, exactly as in
//! [`DynamicLemp::insert`]) and staleness-stamp only that shard's
//! [`PlanSegment`] — plans refresh cheaply via
//! [`Engine::refresh_plan`], which recompiles just the stale segments.
//!
//! # Exactness across the merge boundary
//!
//! Each shard's buckets carry **global** probe ids (the shard engines are
//! built over their slice of the probe matrix and then relabeled), so
//! shard outputs need no translation layer:
//!
//! * **Above-θ** (and |Above-θ|): a probe either is or is not in a shard;
//!   the global result is the *concatenation* of per-shard results, entry
//!   values bit-identical to the unsharded engine (verification computes
//!   inner products on the original vectors in both).
//! * **Row-Top-k** (and the floored variant): each shard returns its local
//!   top-k per query; the global top-k is a per-query **k-way heap merge**
//!   of the shard-local lists ([`kway_merge_topk`]), ordered by descending
//!   score with ties broken by ascending global id. Scores are
//!   bit-identical to the unsharded engine; at a tied k-boundary the
//!   retained *ids* may legally differ between any two exact engines (the
//!   same caveat as between LEMP and Naive), never the retained scores.
//! * **Adaptive selection**: per-shard selectors carry the learning state;
//!   results are exact regardless of what the bandits chose.
//!
//! The differential conformance suite
//! (`crates/core/tests/sharding_conformance.rs`) pins this down: for every
//! method and `S ∈ {1, 2, 3, 7}` under every [`ShardPolicy`], the sharded
//! engine must agree with the unsharded engine and with the naive scan —
//! including ties at the k-boundary and `θ` exactly equal to a score.
//!
//! # Partitioning
//!
//! [`ShardPolicy`] picks the partition. `RoundRobin` balances shard sizes
//! regardless of the length distribution; `LengthBanded` gives each shard
//! a contiguous band of the length-sorted probes (shard 0 the longest), so
//! under Row-Top-k workloads the short-band shards prune early and shard 0
//! does the seeding work — mirroring the paper's bucket layout at the
//! shard level; `Explicit` accepts any externally computed assignment
//! (e.g. a routing table from a placement optimizer).
//!
//! # Persistence
//!
//! [`ShardedLemp::save`] writes a `LEMPSHD2` manifest: the shard map
//! header (policy kind, shard count, the fixed routing bands) plus every
//! shard's ordinary dynamic-engine image (`LEMPDYN1`, or `LEMPDYN3` with
//! the shard's codebook and codes when quantized), length-prefixed — so
//! id watermarks and dead ids survive the round trip and edits continue
//! seamlessly after a load. Loading re-validates each embedded image with
//! the full single-engine checks *and* the cross-shard invariants (equal
//! dimensionality, globally disjoint probe ids). Legacy `LEMPSHD1`
//! manifests (immutable `LEMPENG1` shards) still load — each shard is
//! wrapped as a dynamic engine with the default bucket policy — and
//! legacy single-shard `.eng` files keep loading through [`Lemp::load`];
//! the formats are distinguished by magic (see [`is_sharded_image`]).

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use lemp_linalg::{kernels, LinalgError, ScoredItem, VectorStore};

use crate::adaptive::{self, AdaptiveConfig, AdaptiveSelector};
use crate::algos::MethodScratch;
use crate::bucket::BucketPolicy;
use crate::dynamic::DynamicLemp;
use crate::exec::RunConfig;
use crate::persist::{expect_eof, read_f64, read_u64, write_f64, write_u64, PersistError};
use crate::plan::{
    self, Engine, PlanSegment, Planner, QueryKind, QueryPlan, QueryRequest, QueryResponse, Scratch,
};
use crate::runner::{self, AboveThetaOutput, RunStats, TopKOutput};
use crate::variant::{LempVariant, TunedParams};
use crate::{Lemp, WarmGoal, WarmReport};

/// How probe rows are assigned to shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPolicy {
    /// Row `i` goes to shard `i mod S`: balanced sizes, length-agnostic.
    RoundRobin,
    /// The probes are sorted by decreasing length and cut into `S`
    /// near-equal contiguous bands; shard 0 holds the longest band. The
    /// shard-level analogue of LEMP's own bucketization.
    LengthBanded,
    /// Explicit per-row shard assignment (`assignment[i] < S` for all
    /// rows). For routing tables computed outside the engine.
    Explicit(Vec<u32>),
}

impl ShardPolicy {
    fn kind(&self) -> ShardPolicyKind {
        match self {
            ShardPolicy::RoundRobin => ShardPolicyKind::RoundRobin,
            ShardPolicy::LengthBanded => ShardPolicyKind::LengthBanded,
            ShardPolicy::Explicit(_) => ShardPolicyKind::Explicit,
        }
    }

    /// Global row ids per shard. Rows within a shard keep the order the
    /// policy produces; the shard engine re-sorts by length anyway.
    fn partition(&self, probes: &VectorStore, shards: usize) -> Vec<Vec<usize>> {
        let n = probes.len();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); shards];
        match self {
            ShardPolicy::RoundRobin => {
                for i in 0..n {
                    rows[i % shards].push(i);
                }
            }
            ShardPolicy::LengthBanded => {
                let lengths = probes.lengths();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| lengths[b].total_cmp(&lengths[a]).then(a.cmp(&b)));
                let band = n.div_ceil(shards).max(1);
                for (pos, &row) in order.iter().enumerate() {
                    rows[(pos / band).min(shards - 1)].push(row);
                }
            }
            ShardPolicy::Explicit(assignment) => {
                assert_eq!(
                    assignment.len(),
                    n,
                    "explicit shard assignment must cover every probe row"
                );
                for (i, &s) in assignment.iter().enumerate() {
                    assert!(
                        (s as usize) < shards,
                        "explicit assignment routes row {i} to shard {s}, only {shards} shards"
                    );
                    rows[s as usize].push(i);
                }
            }
        }
        rows
    }
}

/// The partitioning family of a (possibly loaded) sharded engine. A loaded
/// `Explicit` engine keeps its partition (it is embedded in the shard
/// contents) without retaining the original assignment vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicyKind {
    /// Built with [`ShardPolicy::RoundRobin`].
    RoundRobin,
    /// Built with [`ShardPolicy::LengthBanded`].
    LengthBanded,
    /// Built with [`ShardPolicy::Explicit`].
    Explicit,
}

impl ShardPolicyKind {
    /// **Deterministic insert routing**: the shard a freshly allocated
    /// global `id` with vector length `len` lands on. Round-robin and
    /// explicit engines place by `id mod shards` (for round-robin this
    /// extends the build-time assignment exactly); length-banded engines
    /// place by the fixed band boundaries captured when the engine was
    /// built (`bands[i]` is the lowest length band `i` covers, so the
    /// vector goes to the first band that reaches down to `len`). The same
    /// `(id, len)` always routes to the same shard — replaying an edit
    /// sequence reproduces the exact same placement.
    pub fn route_insert(self, id: u32, len: f64, bands: &[f64], shards: usize) -> usize {
        debug_assert!(shards >= 1);
        match self {
            // `bands` is non-increasing; the partition point counts the
            // bands whose floor lies strictly above `len`.
            ShardPolicyKind::LengthBanded => {
                bands.partition_point(|&b| b > len).min(shards.saturating_sub(1))
            }
            _ => (id as usize) % shards,
        }
    }

    /// **Closed-form ownership**, when the policy defines one: round-robin
    /// placement is `id mod shards` for build rows and routed inserts
    /// alike, so the owner is computable without consulting the shards.
    /// Length-banded and explicit placements depend on engine state
    /// (vector lengths / an external table); resolve those through
    /// [`ShardedLemp::owner_of`], which scans shard membership.
    pub fn owner_of(self, id: u32, shards: usize) -> Option<usize> {
        match self {
            ShardPolicyKind::RoundRobin => Some((id as usize) % shards.max(1)),
            _ => None,
        }
    }
}

fn kind_tag(kind: ShardPolicyKind) -> u8 {
    match kind {
        ShardPolicyKind::RoundRobin => 0,
        ShardPolicyKind::LengthBanded => 1,
        ShardPolicyKind::Explicit => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<ShardPolicyKind, PersistError> {
    Ok(match tag {
        0 => ShardPolicyKind::RoundRobin,
        1 => ShardPolicyKind::LengthBanded,
        2 => ShardPolicyKind::Explicit,
        other => return Err(PersistError::Format(format!("unknown shard policy tag {other}"))),
    })
}

/// Errors of the exact merge layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The same global probe id appeared in more than one shard-local
    /// list — the shards do not partition the probe set.
    DuplicateGlobalId(usize),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::DuplicateGlobalId(id) => {
                write!(f, "global probe id {id} appears in more than one shard list")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One entry of the k-way merge heap: the current head of `list`.
struct MergeHead {
    score: f64,
    id: usize,
    list: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: larger score wins; among ties the *smaller* id wins.
        self.score.total_cmp(&other.score).then_with(|| other.id.cmp(&self.id))
    }
}

/// Exact k-way merge of shard-local top-k lists: the global top-k of the
/// concatenation, sorted by descending score with ties broken by ascending
/// global id (the same canonical order as a single engine's
/// [`lemp_linalg::TopK::drain_sorted`]). Each input list is normalized to
/// that order first, so arbitrary within-tie input orders are accepted;
/// `k` larger than the total candidate count returns everything.
///
/// # Errors
/// [`ShardError::DuplicateGlobalId`] if any global id appears in more than
/// one input item — shard outputs must partition the probe set. (The
/// engine's own merge path skips this scan: disjointness is a structural
/// invariant enforced when a [`ShardedLemp`] is built or loaded.)
pub fn kway_merge_topk(
    lists: Vec<Vec<ScoredItem>>,
    k: usize,
) -> Result<Vec<ScoredItem>, ShardError> {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut seen = HashSet::with_capacity(total);
    for item in lists.iter().flatten() {
        if !seen.insert(item.id) {
            return Err(ShardError::DuplicateGlobalId(item.id));
        }
    }
    Ok(merge_disjoint(lists, k))
}

/// The merge itself, assuming globally disjoint ids (checked only in debug
/// builds) — the per-query hot path of [`ShardedLemp::row_top_k_shared`],
/// which never allocates the duplicate-scan hash set.
fn merge_disjoint(mut lists: Vec<Vec<ScoredItem>>, k: usize) -> Vec<ScoredItem> {
    debug_assert!(
        {
            let mut seen = HashSet::new();
            lists.iter().flatten().all(|item| seen.insert(item.id))
        },
        "shard-local lists must hold globally disjoint ids"
    );
    let total: usize = lists.iter().map(Vec::len).sum();
    for list in &mut lists {
        // Already sorted by descending score (shard output); the re-sort
        // only canonicalizes within-tie id order, so it is near-linear.
        list.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    }
    let take = k.min(total);
    let mut out = Vec::with_capacity(take);
    if take == 0 {
        return out;
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(lists.len());
    for (li, list) in lists.iter().enumerate() {
        if let Some(item) = list.first() {
            heap.push(MergeHead { score: item.score, id: item.id, list: li, pos: 0 });
        }
    }
    while out.len() < take {
        let head = heap.pop().expect("heap holds a head while items remain");
        out.push(ScoredItem { id: head.id, score: head.score });
        if let Some(next) = lists[head.list].get(head.pos + 1) {
            heap.push(MergeHead {
                score: next.score,
                id: next.id,
                list: head.list,
                pos: head.pos + 1,
            });
        }
    }
    out
}

/// Fans per-shard work `chunks` out across scoped threads, one worker per
/// chunk; each worker runs `f` over its chunk serially and the results are
/// flattened back in shard order. A single chunk runs inline — the serial
/// path spawns nothing. Shared by [`ShardedLemp::warm`] (mutable chunks)
/// and the query fan-out (shared chunks + scratch slices).
fn fan_out_chunks<C: Send, T: Send>(chunks: Vec<C>, f: impl Fn(C) -> Vec<T> + Sync) -> Vec<T> {
    if chunks.len() <= 1 {
        return chunks.into_iter().flat_map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.into_iter().map(|c| scope.spawn(move || f(c))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("shard worker panicked")).collect()
    })
}

/// Per-shard scratch for the shared (`&self`) query path of a
/// [`ShardedLemp`] — one [`MethodScratch`] per shard, handed out disjointly
/// to the fan-out workers. One `ShardScratch` per querying thread.
#[derive(Debug)]
pub struct ShardScratch {
    per_shard: Vec<MethodScratch>,
}

/// Builder for [`ShardedLemp`].
#[derive(Debug, Clone)]
pub struct ShardedLempBuilder {
    shards: usize,
    policy: ShardPolicy,
    bucket_policy: BucketPolicy,
    config: RunConfig,
}

impl Default for ShardedLempBuilder {
    fn default() -> Self {
        Self {
            shards: 1,
            policy: ShardPolicy::RoundRobin,
            bucket_policy: BucketPolicy::default(),
            config: RunConfig::default(),
        }
    }
}

impl ShardedLempBuilder {
    /// Number of shards (≥ 1; default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Partitioning policy (default [`ShardPolicy::RoundRobin`]).
    pub fn policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bucket method(s) of every shard engine; default [`LempVariant::LI`].
    pub fn variant(mut self, variant: LempVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Tuner sample size of every shard engine (Sec. 4.4; default 50).
    pub fn sample_size(mut self, sample: usize) -> Self {
        self.config.sample_size = sample;
        self
    }

    /// Quantized probe codes for every shard engine: `bits` per subspace
    /// code (1..=16), or 0 to disable (the default). See
    /// [`LempBuilder::quantize`](crate::LempBuilder::quantize).
    pub fn quantize(mut self, bits: u8) -> Self {
        assert!(bits <= crate::quant::MAX_QUANT_BITS, "quantize bits must be ≤ 16, got {bits}");
        self.config.quantize_bits = bits;
        self
    }

    /// Forces the quantized LUT scan in every shard engine (see
    /// [`RunConfig::quantize_force`]). No effect without
    /// [`quantize`](Self::quantize).
    pub fn quantize_force(mut self, force: bool) -> Self {
        self.config.quantize_force = force;
        self
    }

    /// Threads for the **shard fan-out** (shard engines themselves run
    /// single-threaded; parallelism comes from querying shards
    /// concurrently). Default 1 = serial shard sweep.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Bucketization policy of every shard engine.
    pub fn bucket_policy(mut self, policy: BucketPolicy) -> Self {
        self.bucket_policy = policy;
        self
    }

    /// Partitions `probes` and builds one dynamic engine per shard. Bucket
    /// ids inside every shard are relabeled to the **global** row ids, so
    /// shard outputs merge without translation; for length-banded engines
    /// the band boundaries are captured here, once, and govern every
    /// future routed insert (placement stays deterministic across edits
    /// and rebuilds).
    pub fn build(self, probes: &VectorStore) -> ShardedLemp {
        let fan_out = self.config.threads;
        // Shard engines stay single-threaded: the sharded layer owns the
        // parallelism (one worker per shard), and nesting thread pools
        // would oversubscribe the cores.
        let shard_config = RunConfig { threads: 1, ..self.config };
        let kind = self.policy.kind();
        let rows_per_shard = self.policy.partition(probes, self.shards);
        let shards: Vec<DynamicLemp> = rows_per_shard
            .iter()
            .map(|rows| {
                let sub = probes.select(rows);
                let mut engine = Lemp::builder()
                    .policy(self.bucket_policy)
                    .variant(shard_config.variant)
                    .sample_size(shard_config.sample_size)
                    .tree_base(shard_config.tree_base)
                    .blsh(shard_config.blsh_bits, shard_config.blsh_eps)
                    .quantize(shard_config.quantize_bits)
                    .quantize_force(shard_config.quantize_force)
                    .build(&sub);
                // Relabel local row ids (0..rows.len()) to global ids.
                for bucket in engine.buckets_mut().buckets_mut() {
                    for slot in &mut bucket.ids {
                        *slot = rows[*slot as usize] as u32;
                    }
                }
                DynamicLemp::from_engine(engine, self.bucket_policy)
            })
            .collect();
        let bands = compute_bands(&shards, kind);
        ShardedLemp { shards, kind, bands, fan_out, dim: probes.dim() }
    }
}

/// The fixed routing bands of a length-banded engine: `bands[i]` is the
/// lowest vector length shard `i` covers (`i < S-1`; the last shard takes
/// everything shorter). Derived from the shard contents at build/load time
/// and never recomputed — routed placement must stay deterministic while
/// edits reshape the shards. Empty shards inherit the previous boundary
/// (an empty shard 0 gets `+∞`, i.e. routes nothing), keeping the band
/// vector non-increasing.
fn compute_bands(shards: &[DynamicLemp], kind: ShardPolicyKind) -> Vec<f64> {
    if kind != ShardPolicyKind::LengthBanded || shards.len() <= 1 {
        return Vec::new();
    }
    let mut bands = Vec::with_capacity(shards.len() - 1);
    let mut prev = f64::INFINITY;
    for shard in &shards[..shards.len() - 1] {
        let floor = shard.buckets().buckets().last().map_or(prev, |b| b.min_len);
        let floor = floor.min(prev);
        bands.push(floor);
        prev = floor;
    }
    bands
}

/// A shard-parallel LEMP engine: `S` independently warmed [`DynamicLemp`]
/// shards behind an exact merge layer, with deterministic edit routing.
/// After [`ShardedLemp::warm`] all query methods run through `&self` with
/// a caller-owned [`ShardScratch`], so one sharded engine serves any
/// number of threads concurrently — exactly like [`Lemp`], scaled out —
/// while [`ShardedLemp::insert`]/[`ShardedLemp::remove`] (under the
/// caller's write exclusivity) route edits to the owning shard and keep
/// warm shards warm.
///
/// ```
/// use lemp_core::shard::{ShardPolicy, ShardedLemp};
/// use lemp_core::WarmGoal;
/// use lemp_linalg::VectorStore;
///
/// let probes = VectorStore::from_rows(&[
///     vec![3.0, 0.0],
///     vec![0.0, 2.0],
///     vec![1.0, 1.0],
/// ]).unwrap();
/// let queries = VectorStore::from_rows(&[vec![1.0, 0.5]]).unwrap();
/// let mut engine = ShardedLemp::builder()
///     .shards(2)
///     .policy(ShardPolicy::LengthBanded)
///     .build(&probes);
/// engine.warm(&queries, WarmGoal::TopK(2));
/// let mut scratch = engine.make_scratch();
/// let top = engine.row_top_k_shared(&queries, 2, &mut scratch);
/// assert_eq!(top.lists[0][0].id, 0); // global ids, merged exactly
/// ```
#[derive(Debug)]
pub struct ShardedLemp {
    /// One dynamic engine per shard; bucket ids are global probe ids.
    shards: Vec<DynamicLemp>,
    kind: ShardPolicyKind,
    /// Fixed routing bands of a length-banded engine (see
    /// [`compute_bands`]); empty for every other policy.
    bands: Vec<f64>,
    fan_out: usize,
    dim: usize,
}

impl ShardedLemp {
    /// Builder with all defaults (1 shard, round-robin, LEMP-LI).
    pub fn builder() -> ShardedLempBuilder {
        ShardedLempBuilder::default()
    }

    /// Round-robin sharded engine over `probes` with all other defaults.
    pub fn new(probes: &VectorStore, shards: usize) -> Self {
        Self::builder().shards(shards).build(probes)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of **live** probe vectors across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(DynamicLemp::len).sum()
    }

    /// `true` if no shard holds any live probes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live probe count per shard (the shard map, in shard order) — reads
    /// the engines, so it stays accurate under edits.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(DynamicLemp::len).collect()
    }

    /// Total bucket count across all shards.
    pub fn bucket_count(&self) -> usize {
        self.shards.iter().map(DynamicLemp::bucket_count).sum()
    }

    /// The partitioning family this engine was built (or loaded) with.
    pub fn policy_kind(&self) -> ShardPolicyKind {
        self.kind
    }

    /// The fixed routing bands of a length-banded engine (empty for other
    /// policies): `bands[i]` is the lowest length shard `i` covers.
    pub fn bands(&self) -> &[f64] {
        &self.bands
    }

    /// The shard engines (inspection / tests). Bucket ids are global.
    pub fn shards(&self) -> &[DynamicLemp] {
        &self.shards
    }

    /// Per-shard probe residency: full-precision direction bytes vs
    /// quantized code+codebook bytes (see
    /// [`MemoryUsage`](crate::bucket::MemoryUsage)). One entry per shard,
    /// in shard order.
    pub fn memory_usage(&self) -> Vec<crate::bucket::MemoryUsage> {
        self.shards.iter().map(DynamicLemp::memory_usage).collect()
    }

    /// The id the next [`ShardedLemp::insert`] will return: the **global**
    /// watermark, i.e. the maximum of the shard watermarks (every
    /// allocated id raised its owner's watermark past itself, and
    /// watermarks never shrink).
    pub fn next_id(&self) -> u32 {
        self.shards.iter().map(DynamicLemp::next_id).max().unwrap_or(0)
    }

    /// Whether `id` refers to a live probe in any shard.
    pub fn contains(&self, id: u32) -> bool {
        self.shards.iter().any(|s| s.contains(id))
    }

    /// The shard that holds the **live** probe `id`, or `None` when the id
    /// is dead or unallocated. Round-robin ownership is closed-form
    /// ([`ShardPolicyKind::owner_of`]); other policies scan shard
    /// membership (`S` constant-time lookups).
    pub fn owner_of(&self, id: u32) -> Option<usize> {
        match self.kind.owner_of(id, self.shards.len()) {
            Some(s) => self.shards[s].contains(id).then_some(s),
            None => self.shards.iter().position(|s| s.contains(id)),
        }
    }

    /// **Pure routing preview**: the `(id, shard)` the next insert of `v`
    /// will produce, without mutating anything — how a write-ahead-logging
    /// store records an insert's placement *before* applying it. The
    /// vector must already be validated (finite, right dimensionality).
    pub fn route_insert(&self, v: &[f64]) -> (u32, usize) {
        let id = self.next_id();
        let shard = self.kind.route_insert(id, kernels::norm(v), &self.bands, self.shards.len());
        (id, shard)
    }

    /// **Routed insert**: allocates the next global id, routes it to its
    /// shard ([`ShardPolicyKind::route_insert`]) and inserts there
    /// ([`DynamicLemp::insert_with_id`]). A warm engine stays warm — only
    /// the touched shard re-indexes, and only its [`PlanSegment`] goes
    /// stale. Returns the stable global id.
    ///
    /// # Errors
    /// [`LinalgError::DimMismatch`] on wrong dimensionality and
    /// [`LinalgError::NonFinite`] if any coordinate is NaN or infinite
    /// (nothing changes on error).
    pub fn insert(&mut self, v: &[f64]) -> Result<u32, LinalgError> {
        if v.len() != self.dim {
            return Err(LinalgError::DimMismatch { left: self.dim, right: v.len() });
        }
        if let Some(index) = v.iter().position(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite { index });
        }
        let (id, shard) = self.route_insert(v);
        let got = self.shards[shard].insert_with_id(id, v)?;
        debug_assert_eq!(got, id);
        Ok(id)
    }

    /// **Routed removal**: forwards to the owning shard
    /// ([`ShardedLemp::owner_of`]); returns whether the id was live. A
    /// dead or unallocated id is a no-op.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.owner_of(id) {
            Some(s) => self.shards[s].remove(id),
            None => false,
        }
    }

    /// **Per-shard rebuild** ([`DynamicLemp::rebuild`] on every shard,
    /// fanned out across the thread pool): compacts each shard's
    /// bucketization in place. Stable ids, shard placement and the routing
    /// bands are all preserved — rebuilds never re-route probes, so
    /// placement stays deterministic.
    pub fn rebuild(&mut self) {
        let chunk = self.chunk_size();
        fan_out_chunks(self.shards.chunks_mut(chunk).collect(), |shards: &mut [DynamicLemp]| {
            shards.iter_mut().map(DynamicLemp::rebuild).collect::<Vec<()>>()
        });
    }

    /// Overrides the shard fan-out thread count (shard engines themselves
    /// stay single-threaded).
    pub fn set_threads(&mut self, threads: usize) {
        self.fan_out = threads.max(1);
    }

    /// **Warms every shard** ([`Lemp::warm`] per shard, fanned out across
    /// the thread pool); afterwards the `*_shared` methods answer through
    /// `&self`. Reports are summed.
    ///
    /// # Panics
    /// If the sample dimensionality differs from the probe dimensionality.
    pub fn warm(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        assert_eq!(sample.dim(), self.dim, "query/probe dimensionality mismatch");
        let chunk = self.chunk_size();
        let reports: Vec<WarmReport> = fan_out_chunks(
            self.shards.chunks_mut(chunk).collect(),
            |shards: &mut [DynamicLemp]| shards.iter_mut().map(|s| s.warm(sample, goal)).collect(),
        );
        let mut report = WarmReport::default();
        for r in reports {
            report.indexes_built += r.indexes_built;
            report.build_ns += r.build_ns;
            report.tune_ns += r.tune_ns;
        }
        report
    }

    /// Whether [`ShardedLemp::warm`] has run (the `*_shared` methods are
    /// usable). Warmth lives in the shards and survives edits — an insert
    /// or removal re-indexes the touched shard inside the edit.
    pub fn is_warm(&self) -> bool {
        self.shards.iter().all(DynamicLemp::is_warm)
    }

    /// A [`ShardScratch`] sized for this engine (one per querying thread).
    /// Scratch grows on demand, so it stays valid as edits reshape the
    /// shards.
    pub fn make_scratch(&self) -> ShardScratch {
        ShardScratch { per_shard: self.shards.iter().map(DynamicLemp::make_scratch).collect() }
    }

    /// Fresh per-shard selectors for the adaptive drivers, aligned with
    /// the shard list.
    pub fn adaptive_selectors(&self, acfg: &AdaptiveConfig) -> Vec<AdaptiveSelector> {
        self.shards.iter().map(|s| s.adaptive_selector(acfg)).collect()
    }

    /// Every live vector with its global id, concatenated shard by shard
    /// (mirrors [`DynamicLemp::live_vectors`]) — `ids[i]` is the stable
    /// global id of row `i` in the returned store.
    pub fn live_vectors(&self) -> (Vec<u32>, VectorStore) {
        let mut ids = Vec::with_capacity(self.len());
        let mut store = VectorStore::empty(self.dim).expect("dim > 0");
        for shard in &self.shards {
            let (shard_ids, vectors) = shard.live_vectors();
            for (i, &id) in shard_ids.iter().enumerate() {
                ids.push(id);
                store.push(vectors.vector(i)).expect("same dimensionality");
            }
        }
        (ids, store)
    }

    /// Exactly `min(max, len)` probe vectors, strided across every shard's
    /// buckets — a warming sample that covers the whole length spectrum
    /// when no query sample is at hand (mirrors the serving layer's
    /// self-sample). Shards are visited smallest first, so budget a small
    /// shard cannot use is always redistributed to a larger one and the
    /// count comes out exact regardless of shard-size skew.
    pub fn sample_vectors(&self, max: usize) -> VectorStore {
        let mut store = VectorStore::empty(self.dim).expect("dim > 0");
        let total = self.len();
        if total == 0 || max == 0 {
            return store;
        }
        let mut nonempty: Vec<&DynamicLemp> =
            self.shards.iter().filter(|s| s.buckets().total() > 0).collect();
        nonempty.sort_by_key(|s| s.buckets().total());
        let mut remaining = max.min(total);
        for (i, shard) in nonempty.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let n = shard.buckets().total();
            let take = remaining.div_ceil(nonempty.len() - i).min(n);
            let stride = (n / take).max(1);
            let mut idx = 0usize;
            let mut picked = 0usize;
            'shard: for bucket in shard.buckets().buckets() {
                for l in 0..bucket.len() {
                    if idx.is_multiple_of(stride) {
                        store.push(bucket.origs.vector(l)).expect("same dimensionality");
                        picked += 1;
                        if picked == take {
                            break 'shard;
                        }
                    }
                    idx += 1;
                }
            }
            remaining -= picked;
        }
        store
    }

    fn assert_ready(&self, caller: &str, scratch: &ShardScratch) {
        assert!(self.is_warm(), "{caller} requires a warmed engine: call ShardedLemp::warm first");
        assert_eq!(
            scratch.per_shard.len(),
            self.shards.len(),
            "{caller}: scratch was made for a different sharded engine"
        );
    }

    /// Runs `f` once per shard (shard engine + its scratch slot + its
    /// per-bucket parameters), fanned out across up to `fan_out` scoped
    /// threads; results in shard order.
    fn for_each_shard<T: Send>(
        &self,
        scratches: &mut [MethodScratch],
        params: &[&[TunedParams]],
        f: impl Fn(&DynamicLemp, &mut MethodScratch, &[TunedParams]) -> T + Sync,
    ) -> Vec<T> {
        let chunk = self.chunk_size();
        let f = &f;
        fan_out_chunks(
            self.shards
                .chunks(chunk)
                .zip(scratches.chunks_mut(chunk))
                .zip(params.chunks(chunk))
                .map(|((shards, scratches), params)| (shards, scratches, params))
                .collect(),
            move |(shards, scratches, params): (
                &[DynamicLemp],
                &mut [MethodScratch],
                &[&[TunedParams]],
            )| {
                shards
                    .iter()
                    .zip(scratches.iter_mut())
                    .zip(params)
                    .map(|((shard, sc), pb)| f(shard, sc, pb))
                    .collect()
            },
        )
    }

    /// Each shard's tuned per-bucket parameters, straight from its warm
    /// state (the classic entry points; the planned path reads them from
    /// the plan's segments instead).
    fn warm_params(&self, caller: &str) -> Vec<&[TunedParams]> {
        self.shards.iter().map(|s| s.warm_state(caller).per_bucket.as_slice()).collect()
    }

    /// Shards per fan-out worker: `fan_out` workers cover the shard list
    /// in contiguous chunks (one chunk ⇒ the serial path).
    fn chunk_size(&self) -> usize {
        let nthreads = self.fan_out.min(self.shards.len()).max(1);
        self.shards.len().div_ceil(nthreads).max(1)
    }

    /// Merges per-shard run statistics: counters sum (CPU totals across
    /// shards, not wall time), bucket/index counts aggregate, and the
    /// query count is restored to the batch size (every shard saw every
    /// query).
    fn merge_stats(&self, outs: &[RunStats], queries: usize) -> RunStats {
        let mut stats = RunStats::default();
        for s in outs {
            stats.merge(s);
        }
        stats.counters.queries = queries as u64;
        stats.bucket_count = self.bucket_count();
        stats
    }

    /// The unified execution core behind the sharded `*_shared` entry
    /// points *and* [`Engine::execute`]: fans the request out across the
    /// shards (serially under adaptive selection, so the learning
    /// trajectories stay deterministic) and merges exactly.
    fn run_sharded(
        &self,
        request: &QueryRequest,
        queries: &VectorStore,
        scratches: &mut [MethodScratch],
        mut selectors: Option<&mut [AdaptiveSelector]>,
        params: &[&[TunedParams]],
    ) -> QueryResponse {
        assert_eq!(
            scratches.len(),
            self.shards.len(),
            "scratch was made for a different sharded engine"
        );
        assert_eq!(params.len(), self.shards.len(), "one parameter set per shard");
        if let Some(sels) = &selectors {
            assert_eq!(sels.len(), self.shards.len(), "one selector per shard");
        }
        if let Some(chunk) = request.options.chunk {
            return self.run_chunked(request, queries, chunk, scratches, selectors, params);
        }
        match request.kind {
            QueryKind::AboveTheta { theta } => QueryResponse::from_above(self.sharded_above(
                theta,
                queries,
                scratches,
                &mut selectors,
                params,
            )),
            QueryKind::AbsAboveTheta { theta } => {
                QueryResponse::from_above(crate::abs_above_theta_via(queries, theta, |q| {
                    self.sharded_above(theta, q, scratches, &mut selectors, params)
                }))
            }
            QueryKind::TopK { k } => QueryResponse::from_top_k(self.sharded_topk(
                k,
                f64::NEG_INFINITY,
                queries,
                scratches,
                &mut selectors,
                params,
            )),
            QueryKind::TopKWithFloor { k, floor } => QueryResponse::from_top_k(self.sharded_topk(
                k,
                floor,
                queries,
                scratches,
                &mut selectors,
                params,
            )),
        }
    }

    /// Chunked sharded execution: blocks of query rows sweep the whole
    /// shard set through the shared chunked driver.
    fn run_chunked(
        &self,
        request: &QueryRequest,
        queries: &VectorStore,
        chunk: usize,
        scratches: &mut [MethodScratch],
        mut selectors: Option<&mut [AdaptiveSelector]>,
        params: &[&[TunedParams]],
    ) -> QueryResponse {
        plan::run_chunked_with(request, queries, chunk, |inner, block| {
            self.run_sharded(inner, block, scratches, selectors.as_deref_mut(), params)
        })
    }

    /// One Above-θ pass across all shards: concatenation merge (a probe
    /// lives in exactly one shard), entry values bit-identical to the
    /// unsharded engine.
    fn sharded_above(
        &self,
        theta: f64,
        queries: &VectorStore,
        scratches: &mut [MethodScratch],
        selectors: &mut Option<&mut [AdaptiveSelector]>,
        params: &[&[TunedParams]],
    ) -> AboveThetaOutput {
        let outs: Vec<AboveThetaOutput> = match selectors {
            Some(sels) => self
                .shards
                .iter()
                .zip(scratches.iter_mut())
                .zip(sels.iter_mut())
                .map(|((shard, sc), sel)| {
                    adaptive::above_theta_adaptive_prepared(
                        shard.buckets(),
                        queries,
                        theta,
                        sel,
                        sc,
                    )
                })
                .collect(),
            None => self.for_each_shard(scratches, params, |shard, sc, pb| {
                runner::above_theta_prepared(
                    shard.buckets(),
                    queries,
                    theta,
                    shard.config(),
                    pb,
                    shard.warm_state("sharded above-theta").blsh_table.as_ref(),
                    sc,
                )
            }),
        };
        let mut entries = Vec::with_capacity(outs.iter().map(|o| o.entries.len()).sum());
        let stats: Vec<RunStats> = outs
            .into_iter()
            .map(|o| {
                entries.extend(o.entries);
                o.stats
            })
            .collect();
        let mut stats = self.merge_stats(&stats, queries.len());
        stats.counters.results = entries.len() as u64;
        AboveThetaOutput { entries, stats }
    }

    /// One Row-Top-k pass across all shards: per-shard local lists merged
    /// with the exact per-query k-way merge.
    fn sharded_topk(
        &self,
        k: usize,
        floor: f64,
        queries: &VectorStore,
        scratches: &mut [MethodScratch],
        selectors: &mut Option<&mut [AdaptiveSelector]>,
        params: &[&[TunedParams]],
    ) -> TopKOutput {
        let mut outs: Vec<TopKOutput> = match selectors {
            Some(sels) => self
                .shards
                .iter()
                .zip(scratches.iter_mut())
                .zip(sels.iter_mut())
                .map(|((shard, sc), sel)| {
                    adaptive::row_top_k_adaptive_prepared(shard.buckets(), queries, k, sel, sc)
                })
                .collect(),
            None => self.for_each_shard(scratches, params, |shard, sc, pb| {
                runner::row_top_k_prepared(
                    shard.buckets(),
                    queries,
                    k,
                    floor,
                    shard.config(),
                    pb,
                    shard.warm_state("sharded row-top-k").blsh_table.as_ref(),
                    sc,
                )
            }),
        };
        let mut lists = self.merge_lists(&mut outs, queries.len(), k);
        if selectors.is_some() && floor > f64::NEG_INFINITY {
            // Adaptive shards return plain top-k lists; filtering the
            // merged result by the floor is exact (any entry ≥ floor
            // outside the plain top-k is dominated by k entries ≥ floor).
            for list in &mut lists {
                list.retain(|item| item.score >= floor);
            }
        }
        let stats: Vec<RunStats> = outs.into_iter().map(|o| o.stats).collect();
        let mut stats = self.merge_stats(&stats, queries.len());
        stats.counters.results = lists.iter().map(|l| l.len() as u64).sum();
        TopKOutput { lists, stats }
    }

    /// **Above-θ** across all shards: per-shard shared runs, results
    /// concatenated (a probe lives in exactly one shard). Entry values are
    /// bit-identical to the unsharded engine.
    ///
    /// # Panics
    /// If the engine is not warmed, the scratch belongs to another engine,
    /// or on query/probe dimensionality mismatch.
    pub fn above_theta_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        scratch: &mut ShardScratch,
    ) -> AboveThetaOutput {
        self.assert_ready("above_theta_shared", scratch);
        let params = self.warm_params("above_theta_shared");
        self.run_sharded(
            &QueryRequest::above_theta(theta),
            queries,
            &mut scratch.per_shard,
            None,
            &params,
        )
        .into_above()
    }

    /// **Row-Top-k** across all shards: per-shard shared runs merged with
    /// the exact per-query k-way merge ([`kway_merge_topk`]).
    ///
    /// # Panics
    /// Same conditions as [`ShardedLemp::above_theta_shared`].
    pub fn row_top_k_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        scratch: &mut ShardScratch,
    ) -> TopKOutput {
        self.row_top_k_with_floor_shared(queries, k, f64::NEG_INFINITY, scratch)
    }

    /// **Row-Top-k with a score floor** across all shards (each shard
    /// applies the floor locally; the merged top-k of the per-shard
    /// floored lists is exactly the floored global top-k).
    ///
    /// # Panics
    /// Same conditions as [`ShardedLemp::above_theta_shared`].
    pub fn row_top_k_with_floor_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        floor: f64,
        scratch: &mut ShardScratch,
    ) -> TopKOutput {
        self.assert_ready("row_top_k_with_floor_shared", scratch);
        let params = self.warm_params("row_top_k_with_floor_shared");
        self.run_sharded(
            &QueryRequest::top_k_with_floor(k, floor),
            queries,
            &mut scratch.per_shard,
            None,
            &params,
        )
        .into_top_k()
    }

    /// **|Above-θ|** across all shards (two exact Above-θ passes, as in
    /// [`Lemp::abs_above_theta`]).
    ///
    /// # Panics
    /// If `theta ≤ 0`, plus the conditions of
    /// [`ShardedLemp::above_theta_shared`].
    pub fn abs_above_theta_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        scratch: &mut ShardScratch,
    ) -> AboveThetaOutput {
        self.assert_ready("abs_above_theta_shared", scratch);
        let params = self.warm_params("abs_above_theta_shared");
        self.run_sharded(
            &QueryRequest::abs_above_theta(theta),
            queries,
            &mut scratch.per_shard,
            None,
            &params,
        )
        .into_above()
    }

    /// **Above-θ with online (bandit) selection** across all shards: each
    /// shard learns in its own selector (obtain the slice from
    /// [`ShardedLemp::adaptive_selectors`]). Shards run serially so the
    /// learning trajectories stay deterministic; results are exact either
    /// way.
    ///
    /// # Panics
    /// If the selector slice is not aligned with the shard list, plus the
    /// conditions of [`ShardedLemp::above_theta_shared`].
    pub fn above_theta_adaptive_shared(
        &self,
        queries: &VectorStore,
        theta: f64,
        selectors: &mut [AdaptiveSelector],
        scratch: &mut ShardScratch,
    ) -> AboveThetaOutput {
        self.assert_ready("above_theta_adaptive_shared", scratch);
        let params = self.warm_params("above_theta_adaptive_shared");
        self.run_sharded(
            &QueryRequest::above_theta(theta),
            queries,
            &mut scratch.per_shard,
            Some(selectors),
            &params,
        )
        .into_above()
    }

    /// [`ShardedLemp::above_theta_adaptive_shared`] for Row-Top-k
    /// workloads.
    ///
    /// # Panics
    /// Same conditions as [`ShardedLemp::above_theta_adaptive_shared`].
    pub fn row_top_k_adaptive_shared(
        &self,
        queries: &VectorStore,
        k: usize,
        selectors: &mut [AdaptiveSelector],
        scratch: &mut ShardScratch,
    ) -> TopKOutput {
        self.assert_ready("row_top_k_adaptive_shared", scratch);
        let params = self.warm_params("row_top_k_adaptive_shared");
        self.run_sharded(
            &QueryRequest::top_k(k),
            queries,
            &mut scratch.per_shard,
            Some(selectors),
            &params,
        )
        .into_top_k()
    }

    /// Per-query k-way merge of the shard outputs (lists are moved out of
    /// `outs`).
    fn merge_lists(
        &self,
        outs: &mut [TopKOutput],
        queries: usize,
        k: usize,
    ) -> Vec<Vec<ScoredItem>> {
        (0..queries)
            .map(|qi| {
                let per_shard: Vec<Vec<ScoredItem>> =
                    outs.iter_mut().map(|o| std::mem::take(&mut o.lists[qi])).collect();
                merge_disjoint(per_shard, k)
            })
            .collect()
    }

    /// Assembles a sharded engine from independently built (or recovered)
    /// dynamic shards — the constructor a sharded store uses after
    /// per-shard crash recovery. Validates the cross-shard invariants the
    /// routed-edit machinery relies on: at least one shard, equal
    /// dimensionality everywhere, globally disjoint live probe ids, and a
    /// well-formed band vector (`S-1` non-increasing, non-NaN boundaries
    /// for a length-banded engine; empty otherwise).
    ///
    /// # Errors
    /// [`PersistError::Format`] describing the violated invariant.
    pub fn from_shards(
        shards: Vec<DynamicLemp>,
        kind: ShardPolicyKind,
        bands: Vec<f64>,
    ) -> Result<Self, PersistError> {
        if shards.is_empty() {
            return Err(PersistError::Format("a sharded engine needs at least one shard".into()));
        }
        let dim = shards[0].dim();
        for (s, shard) in shards.iter().enumerate().skip(1) {
            if shard.dim() != dim {
                return Err(PersistError::Format(format!(
                    "shard {s} has dimensionality {}, shard 0 has {dim}",
                    shard.dim()
                )));
            }
        }
        let mut seen_ids: HashSet<u32> = HashSet::new();
        for shard in &shards {
            for bucket in shard.buckets().buckets() {
                for &id in &bucket.ids {
                    if !seen_ids.insert(id) {
                        return Err(PersistError::Format(format!(
                            "probe id {id} appears in more than one shard"
                        )));
                    }
                }
            }
        }
        let expected_bands =
            if kind == ShardPolicyKind::LengthBanded { shards.len() - 1 } else { 0 };
        if bands.len() != expected_bands {
            return Err(PersistError::Format(format!(
                "{} routing bands, policy needs {expected_bands}",
                bands.len()
            )));
        }
        if bands.iter().any(|b| b.is_nan()) || bands.windows(2).any(|w| w[0] < w[1]) {
            return Err(PersistError::Format(
                "routing bands must be non-increasing and non-NaN".into(),
            ));
        }
        Ok(Self { shards, kind, bands, fan_out: 1, dim })
    }

    /// Serializes the sharded engine as a `LEMPSHD2` manifest: policy
    /// kind, shard count, the fixed routing bands, then every shard's
    /// ordinary dynamic-engine image, length-prefixed (so id
    /// watermarks and dead ids survive). The fan-out thread count is
    /// deliberately **not** persisted — it is a machine-specific runtime
    /// knob (loaders pick their own via [`ShardedLemp::set_threads`]), not
    /// a property of the data.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        let mut w = BufWriter::new(writer);
        w.write_all(SHARD_MAGIC)?;
        w.write_all(&[kind_tag(self.kind)])?;
        write_u64(&mut w, self.shards.len() as u64)?;
        write_u64(&mut w, self.bands.len() as u64)?;
        for &band in &self.bands {
            write_f64(&mut w, band)?;
        }
        for shard in &self.shards {
            let mut image = Vec::new();
            shard.write_to(&mut image)?;
            write_u64(&mut w, image.len() as u64)?;
            w.write_all(&image)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Saves the sharded engine to a file (see [`ShardedLemp::write_to`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        self.write_to(File::create(path)?)
    }

    /// Deserializes a manifest written by [`ShardedLemp::write_to`]
    /// (`LEMPSHD2`, dynamic shards) or by a pre-dynamic version of it
    /// (`LEMPSHD1`, immutable shards — each is wrapped as a dynamic engine
    /// under the default bucket policy, with routing bands derived from
    /// the shard contents). Every embedded shard image passes the full
    /// single-engine validation, and the cross-shard invariants are
    /// checked on top by [`ShardedLemp::from_shards`].
    ///
    /// # Errors
    /// [`PersistError::Format`] on bad magic or any validation failure;
    /// [`PersistError::Io`] on read failures.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| PersistError::Format("file too short for magic".into()))?;
        let legacy = match &magic {
            m if m == SHARD_MAGIC => false,
            m if m == SHARD_MAGIC_V1 => true,
            _ => return Err(PersistError::Format(format!("bad magic {magic:?}"))),
        };
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)
            .map_err(|_| PersistError::Format("truncated shard policy tag".into()))?;
        let kind = kind_from_tag(tag[0])?;
        let count = read_u64(&mut r, "shard count")? as usize;
        if count == 0 {
            return Err(PersistError::Format("sharded manifest holds no shards".into()));
        }
        if count > 1 << 16 {
            return Err(PersistError::Format(format!("implausible shard count {count}")));
        }
        let bands = if legacy {
            Vec::new() // derived from the shard contents below
        } else {
            let n = read_u64(&mut r, "band count")? as usize;
            let expected = if kind == ShardPolicyKind::LengthBanded { count - 1 } else { 0 };
            if n != expected {
                return Err(PersistError::Format(format!(
                    "{n} routing bands, policy needs {expected}"
                )));
            }
            let mut bands = Vec::with_capacity(n);
            for _ in 0..n {
                bands.push(read_f64(&mut r, "routing band")?);
            }
            bands
        };
        let mut shards = Vec::with_capacity(count);
        for s in 0..count {
            let len = read_u64(&mut r, "shard image length")?;
            let mut image = Vec::new();
            r.by_ref().take(len).read_to_end(&mut image)?;
            if image.len() as u64 != len {
                return Err(PersistError::Format(format!("shard {s}: truncated image")));
            }
            let shard = if legacy {
                let engine = Lemp::read_from(&image[..])
                    .map_err(|e| PersistError::Format(format!("shard {s}: {e}")))?;
                DynamicLemp::from_engine(engine, BucketPolicy::default())
            } else {
                DynamicLemp::read_from(&image[..])
                    .map_err(|e| PersistError::Format(format!("shard {s}: {e}")))?
            };
            shards.push(shard);
        }
        expect_eof(&mut r)?;
        let bands = if legacy { compute_bands(&shards, kind) } else { bands };
        // Fan-out is a runtime knob of the loading machine, not of the
        // image: `from_shards` starts serial and the loader picks its own
        // via `set_threads`.
        Self::from_shards(shards, kind, bands)
    }

    /// Loads a sharded engine from a file (see
    /// [`ShardedLemp::read_from`]).
    ///
    /// # Errors
    /// Same conditions as [`ShardedLemp::read_from`].
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Self::read_from(File::open(path)?)
    }
}

impl Engine for ShardedLemp {
    fn plan(&self, request: &QueryRequest) -> QueryPlan {
        assert!(
            self.is_warm(),
            "Engine::plan requires a warmed engine: call ShardedLemp::warm first"
        );
        let segments = self
            .shards
            .iter()
            .map(|shard| {
                Planner::segment(
                    shard.buckets(),
                    shard.config(),
                    &shard.warm_state("Engine::plan").per_bucket,
                )
            })
            .collect();
        QueryPlan::new(*request, segments)
    }

    fn execute(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse {
        assert!(
            self.is_warm(),
            "Engine::execute requires a warmed engine: call ShardedLemp::warm first"
        );
        let segments = plan.segments();
        assert_eq!(
            segments.len(),
            self.shards.len(),
            "stale plan — compiled for a different shard layout"
        );
        for (s, (segment, shard)) in segments.iter().zip(&self.shards).enumerate() {
            segment.check_fresh(shard.buckets(), &format!("Engine::execute (shard {s})"));
        }
        let shapes: Vec<(usize, usize)> =
            self.shards.iter().map(|s| (s.buckets().bucket_count(), s.buckets().dim())).collect();
        let adaptive = plan.request().options.adaptive.map(|cfg| (cfg, shapes.as_slice()));
        let (scratches, selectors) = scratch.sharded_parts("Engine::execute", adaptive);
        let params: Vec<&[TunedParams]> = segments.iter().map(PlanSegment::params).collect();
        self.run_sharded(plan.request(), queries, scratches, selectors, &params)
    }

    fn query_scratch(&self) -> Scratch {
        Scratch::sharded(self.shards.iter().map(DynamicLemp::make_scratch).collect())
    }

    fn probes(&self) -> usize {
        self.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn is_warm(&self) -> bool {
        ShardedLemp::is_warm(self)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        ShardedLemp::warm(self, sample, goal)
    }

    /// **Segment-granular refresh**: edits staleness-stamp only the owning
    /// shard's buckets, so every untouched shard's segment is reused
    /// verbatim and only the stale ones recompile.
    fn refresh_plan(&self, plan: &QueryPlan) -> QueryPlan {
        assert!(
            self.is_warm(),
            "Engine::refresh_plan requires a warmed engine: call ShardedLemp::warm first"
        );
        if plan.segments().len() != self.shards.len() {
            // The shard layout itself changed (different engine): recompile.
            return self.plan(plan.request());
        }
        let segments = plan
            .segments()
            .iter()
            .zip(&self.shards)
            .map(|(segment, shard)| {
                if segment.is_fresh(shard.buckets()) {
                    segment.clone()
                } else {
                    Planner::segment(
                        shard.buckets(),
                        shard.config(),
                        &shard.warm_state("Engine::refresh_plan").per_bucket,
                    )
                }
            })
            .collect();
        QueryPlan::new(*plan.request(), segments)
    }
}

const SHARD_MAGIC: &[u8; 8] = b"LEMPSHD2";
/// The pre-dynamic manifest magic (immutable `LEMPENG1` shards): still
/// readable, never written.
const SHARD_MAGIC_V1: &[u8; 8] = b"LEMPSHD1";

/// Whether the file at `path` is a sharded engine manifest (`LEMPSHD2` or
/// legacy `LEMPSHD1`), as opposed to a single-shard (`LEMPENG1` /
/// `LEMPDYN1`) image — all use the `.eng` extension, so services sniff
/// the magic to pick the loader.
///
/// # Errors
/// Propagates filesystem errors (a too-short file reads as "not sharded").
pub fn is_sharded_image(path: &Path) -> Result<bool, PersistError> {
    let mut magic = [0u8; 8];
    let mut f = File::open(path)?;
    match f.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == SHARD_MAGIC || &magic == SHARD_MAGIC_V1),
        // Shorter than any magic: certainly not a sharded manifest. Real
        // I/O failures still surface instead of silently reading as
        // "single-shard" and failing later with a misleading format error.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(PersistError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;

    fn data(m: usize, n: usize, seed: u64) -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(m, 8, 1.0).generate(seed);
        let p = GeneratorConfig::gaussian(n, 8, 1.2).generate(seed + 1);
        (q, p)
    }

    fn warmed(p: &VectorStore, q: &VectorStore, shards: usize, policy: ShardPolicy) -> ShardedLemp {
        let mut engine =
            ShardedLemp::builder().shards(shards).policy(policy).sample_size(8).build(p);
        engine.warm(q, WarmGoal::TopK(5));
        engine
    }

    #[test]
    fn policies_partition_every_row_exactly_once() {
        let (_, p) = data(1, 100, 10);
        for policy in [
            ShardPolicy::RoundRobin,
            ShardPolicy::LengthBanded,
            ShardPolicy::Explicit((0..100u32).map(|i| (i * 7) % 3).collect()),
        ] {
            let rows = policy.partition(&p, 3);
            assert_eq!(rows.len(), 3);
            let mut seen: Vec<usize> = rows.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "{policy:?} lost or duplicated rows");
        }
    }

    #[test]
    fn length_banded_puts_longest_probes_in_shard_zero() {
        let (_, p) = data(1, 120, 11);
        let rows = ShardPolicy::LengthBanded.partition(&p, 4);
        let lengths = p.lengths();
        let min_first: f64 = rows[0].iter().map(|&i| lengths[i]).fold(f64::INFINITY, f64::min);
        let max_rest: f64 =
            rows[1..].iter().flatten().map(|&i| lengths[i]).fold(f64::NEG_INFINITY, f64::max);
        assert!(min_first >= max_rest, "shard 0 must hold the longest band");
    }

    #[test]
    #[should_panic(expected = "must cover every probe row")]
    fn explicit_policy_rejects_wrong_length() {
        let (_, p) = data(1, 10, 12);
        let _ =
            ShardedLemp::builder().shards(2).policy(ShardPolicy::Explicit(vec![0; 5])).build(&p);
    }

    #[test]
    #[should_panic(expected = "routes row")]
    fn explicit_policy_rejects_out_of_range_shard() {
        let (_, p) = data(1, 4, 13);
        let _ = ShardedLemp::builder()
            .shards(2)
            .policy(ShardPolicy::Explicit(vec![0, 1, 2, 0]))
            .build(&p);
    }

    #[test]
    fn sharded_matches_naive_for_both_problems() {
        let (q, p) = data(30, 200, 20);
        let theta = 1.0;
        let (expect_above, _) = Naive.above_theta(&q, &p, theta);
        let (expect_topk, _) = Naive.row_top_k(&q, &p, 4);
        for shards in [1usize, 3] {
            let engine = warmed(&p, &q, shards, ShardPolicy::RoundRobin);
            let mut scratch = engine.make_scratch();
            let above = engine.above_theta_shared(&q, theta, &mut scratch);
            assert_eq!(
                canonical_pairs(&above.entries),
                canonical_pairs(&expect_above),
                "S={shards}"
            );
            let top = engine.row_top_k_shared(&q, 4, &mut scratch);
            assert!(topk_equivalent(&top.lists, &expect_topk, 1e-9), "S={shards}");
        }
    }

    #[test]
    fn fan_out_threads_do_not_change_results() {
        let (q, p) = data(25, 180, 30);
        let serial = {
            let engine = warmed(&p, &q, 4, ShardPolicy::LengthBanded);
            let mut scratch = engine.make_scratch();
            engine.row_top_k_shared(&q, 5, &mut scratch)
        };
        let parallel = {
            let mut engine = ShardedLemp::builder()
                .shards(4)
                .policy(ShardPolicy::LengthBanded)
                .sample_size(8)
                .threads(4)
                .build(&p);
            engine.warm(&q, WarmGoal::TopK(5));
            let mut scratch = engine.make_scratch();
            engine.row_top_k_shared(&q, 5, &mut scratch)
        };
        assert!(topk_equivalent(&serial.lists, &parallel.lists, 0.0));
    }

    #[test]
    fn more_shards_than_probes_leaves_empty_shards_harmless() {
        let (q, p) = data(5, 3, 40);
        let engine = warmed(&p, &q, 7, ShardPolicy::RoundRobin);
        assert_eq!(engine.shard_count(), 7);
        assert_eq!(engine.shard_sizes().iter().sum::<usize>(), 3);
        let mut scratch = engine.make_scratch();
        let top = engine.row_top_k_shared(&q, 5, &mut scratch);
        for list in &top.lists {
            assert_eq!(list.len(), 3, "k beyond the probe count returns everything");
        }
    }

    #[test]
    fn merge_is_canonical_and_rejects_duplicates() {
        let item = |id: usize, score: f64| ScoredItem { id, score };
        // Ties across lists resolve by ascending id; k caps the output.
        let lists =
            vec![vec![item(5, 3.0), item(1, 1.0)], vec![item(2, 3.0), item(9, 2.0)], vec![]];
        let merged = kway_merge_topk(lists.clone(), 3).unwrap();
        assert_eq!(
            merged,
            vec![item(2, 3.0), item(5, 3.0), item(9, 2.0)],
            "ties must resolve by ascending id"
        );
        // k beyond the total returns everything, still canonical.
        let all = kway_merge_topk(lists, 10).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap().id, 1);
        // Duplicate global ids are a partition violation.
        let dup = vec![vec![item(3, 2.0)], vec![item(3, 1.0)]];
        assert_eq!(kway_merge_topk(dup, 2), Err(ShardError::DuplicateGlobalId(3)));
        assert!(kway_merge_topk(vec![], 5).unwrap().is_empty());
    }

    #[test]
    fn manifest_roundtrips_and_answers_identically() {
        let (q, p) = data(20, 150, 50);
        let engine = warmed(&p, &q, 3, ShardPolicy::LengthBanded);
        let mut scratch = engine.make_scratch();
        let before = engine.above_theta_shared(&q, 1.0, &mut scratch);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        let mut loaded = ShardedLemp::read_from(&buf[..]).unwrap();
        assert_eq!(loaded.shard_count(), 3);
        assert_eq!(loaded.len(), 150);
        assert_eq!(loaded.dim(), 8);
        assert_eq!(loaded.policy_kind(), ShardPolicyKind::LengthBanded);
        assert!(!loaded.is_warm(), "warm state is not persisted");
        loaded.warm(&q, WarmGoal::Above(1.0));
        let mut scratch = loaded.make_scratch();
        let after = loaded.above_theta_shared(&q, 1.0, &mut scratch);
        assert_eq!(canonical_pairs(&before.entries), canonical_pairs(&after.entries));
    }

    #[test]
    fn quantized_shards_roundtrip_with_codes_and_report_memory() {
        let (q, p) = data(15, 150, 55);
        let mut engine = ShardedLemp::builder()
            .shards(3)
            .policy(ShardPolicy::LengthBanded)
            .sample_size(8)
            .quantize(8)
            .build(&p);
        engine.warm(&q, WarmGoal::TopK(4));
        let mut stamps = Vec::new();
        for shard in engine.shards() {
            assert_eq!(shard.config().quantize_bits, 8, "builder must thread quantize to shards");
            assert!(
                shard.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
                "warm quantized shard must hold codes"
            );
            // One codebook per shard, trained on that shard's directions.
            stamps.push(shard.buckets().codebook().expect("a trained codebook").stamp());
        }
        stamps.dedup();
        assert_eq!(stamps.len(), 3);
        let usage = engine.memory_usage();
        assert_eq!(usage.len(), 3);
        assert!(usage.iter().all(|u| u.full_bytes > 0 && u.quantized_bytes > 0));
        // Routed edits encode into the touched shard's codebook.
        engine.insert(&[2.0; 8]).unwrap();
        assert!(engine.remove(7));
        let after_edits: Vec<u64> =
            engine.shards().iter().map(|s| s.buckets().codebook().unwrap().stamp()).collect();
        assert_eq!(after_edits, stamps, "edits never train");
        let mut scratch = engine.make_scratch();
        let before = engine.row_top_k_shared(&q, 4, &mut scratch);

        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        let mut loaded = ShardedLemp::read_from(&buf[..]).unwrap();
        for (a, b) in loaded.shards().iter().zip(engine.shards()) {
            assert_eq!(a.config().quantize_bits, 8);
            // Restored without training, before any warm-up.
            assert_eq!(a.buckets().codebook(), b.buckets().codebook());
            assert_eq!(a.memory_usage(), b.memory_usage());
            for (x, y) in a.buckets().buckets().iter().zip(b.buckets().buckets()) {
                assert_eq!(x.indexes.quant, y.indexes.quant, "quant state must round-trip");
            }
        }
        loaded.warm(&q, WarmGoal::TopK(4));
        let mut scratch = loaded.make_scratch();
        let after = loaded.row_top_k_shared(&q, 4, &mut scratch);
        assert!(topk_equivalent(&before.lists, &after.lists, 0.0));
    }

    #[test]
    fn manifest_rejects_corruption() {
        let (q, p) = data(5, 40, 60);
        let engine = warmed(&p, &q, 2, ShardPolicy::RoundRobin);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        // bad magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(ShardedLemp::read_from(&bad[..]), Err(PersistError::Format(_))));
        // unknown policy tag
        let mut bad = buf.clone();
        bad[8] = 77;
        assert!(ShardedLemp::read_from(&bad[..]).unwrap_err().to_string().contains("policy tag"));
        // truncations at structural boundaries
        for cut in [4usize, 9, 24, 40, buf.len() - 1] {
            assert!(ShardedLemp::read_from(&buf[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // trailing garbage
        let mut bad = buf.clone();
        bad.push(1);
        assert!(ShardedLemp::read_from(&bad[..]).unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn manifest_rejects_overlapping_shard_ids() {
        // Hand-build a manifest whose two shards are the *same* image:
        // every probe id collides.
        let (_, p) = data(5, 30, 70);
        let single = DynamicLemp::new(&p, BucketPolicy::default(), RunConfig::default());
        let mut image = Vec::new();
        single.write_to(&mut image).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(SHARD_MAGIC);
        buf.push(0); // round-robin tag
        buf.extend_from_slice(&2u64.to_le_bytes()); // shard count
        buf.extend_from_slice(&0u64.to_le_bytes()); // band count
        for _ in 0..2 {
            buf.extend_from_slice(&(image.len() as u64).to_le_bytes());
            buf.extend_from_slice(&image);
        }
        let err = ShardedLemp::read_from(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("more than one shard"), "{err}");
    }

    #[test]
    fn legacy_v1_manifests_still_load() {
        // Hand-build a LEMPSHD1 manifest (immutable Lemp shards) and check
        // it loads as a dynamic sharded engine that accepts edits.
        let (q, p) = data(10, 60, 71);
        let lengths = p.lengths();
        let mut order: Vec<usize> = (0..60).collect();
        order.sort_by(|&a, &b| lengths[b].total_cmp(&lengths[a]).then(a.cmp(&b)));
        let mut buf = Vec::new();
        buf.extend_from_slice(SHARD_MAGIC_V1);
        buf.push(1); // length-banded tag
        buf.extend_from_slice(&2u64.to_le_bytes()); // shard count
        for rows in [&order[..30], &order[30..]] {
            let sub = p.select(rows);
            let mut shard = Lemp::builder().sample_size(4).build(&sub);
            for bucket in shard.buckets_mut().buckets_mut() {
                for slot in &mut bucket.ids {
                    *slot = rows[*slot as usize] as u32;
                }
            }
            let mut image = Vec::new();
            shard.write_to(&mut image).unwrap();
            buf.extend_from_slice(&(image.len() as u64).to_le_bytes());
            buf.extend_from_slice(&image);
        }
        let mut loaded = ShardedLemp::read_from(&buf[..]).unwrap();
        assert_eq!(loaded.shard_count(), 2);
        assert_eq!(loaded.len(), 60);
        assert_eq!(loaded.policy_kind(), ShardPolicyKind::LengthBanded);
        assert_eq!(loaded.bands().len(), 1, "bands derive from the legacy shard contents");
        assert_eq!(loaded.next_id(), 60);
        // The legacy engine is mutable after load.
        let id = loaded.insert(&[0.5; 8]).unwrap();
        assert_eq!(id, 60);
        assert!(loaded.remove(id));
        loaded.warm(&q, WarmGoal::TopK(3));
        let mut scratch = loaded.make_scratch();
        let top = loaded.row_top_k_shared(&q, 3, &mut scratch);
        let (expect, _) = Naive.row_top_k(&q, &p, 3);
        assert!(topk_equivalent(&top.lists, &expect, 1e-9));
    }

    #[test]
    fn routed_edits_match_unsharded_dynamic_engine() {
        // The acceptance criterion in miniature: the same edit script on a
        // sharded and an unsharded engine answers bit-identically.
        let (q, p) = data(15, 120, 72);
        for policy in [ShardPolicy::RoundRobin, ShardPolicy::LengthBanded] {
            let mut sharded =
                ShardedLemp::builder().shards(3).policy(policy.clone()).sample_size(8).build(&p);
            let mut single = DynamicLemp::new(&p, BucketPolicy::default(), RunConfig::default());
            let extra = GeneratorConfig::gaussian(30, 8, 1.5).generate(73);
            for i in 0..extra.len() {
                let a = sharded.insert(extra.vector(i)).unwrap();
                let b = single.insert(extra.vector(i)).unwrap();
                assert_eq!(a, b, "global id allocation diverged ({policy:?})");
            }
            for id in (0..140u32).step_by(3) {
                assert_eq!(sharded.remove(id), single.remove(id), "{policy:?}: removal of {id}");
            }
            sharded.rebuild();
            assert_eq!(sharded.len(), single.len());
            assert_eq!(sharded.next_id(), single.next_id());
            sharded.warm(&q, WarmGoal::TopK(5));
            let mut scratch = sharded.make_scratch();
            let above = sharded.above_theta_shared(&q, 1.0, &mut scratch);
            let expect = single.above_theta(&q, 1.0);
            assert_eq!(
                canonical_pairs(&above.entries),
                canonical_pairs(&expect.entries),
                "{policy:?}"
            );
            let top = sharded.row_top_k_shared(&q, 4, &mut scratch);
            let expect = single.row_top_k(&q, 4);
            assert!(topk_equivalent(&top.lists, &expect.lists, 0.0), "{policy:?}");
        }
    }

    #[test]
    fn insert_routing_is_deterministic_and_disjoint() {
        let (_, p) = data(1, 50, 74);
        let mut engine = ShardedLemp::builder()
            .shards(3)
            .policy(ShardPolicy::LengthBanded)
            .sample_size(4)
            .build(&p);
        let bands = engine.bands().to_vec();
        let extra = GeneratorConfig::gaussian(20, 8, 2.0).generate(75);
        for i in 0..extra.len() {
            let v = extra.vector(i);
            let (id, shard) = engine.route_insert(v);
            // The preview, the policy's closed form, and the actual insert
            // all agree.
            assert_eq!(
                shard,
                ShardPolicyKind::LengthBanded.route_insert(id, kernels::norm(v), &bands, 3)
            );
            let got = engine.insert(v).unwrap();
            assert_eq!(got, id);
            assert_eq!(engine.owner_of(id), Some(shard), "insert landed off its route");
        }
        // Rebuilds keep placement: owners do not move.
        let owners: Vec<Option<usize>> =
            (0..engine.next_id()).map(|i| engine.owner_of(i)).collect();
        engine.rebuild();
        let after: Vec<Option<usize>> = (0..engine.next_id()).map(|i| engine.owner_of(i)).collect();
        assert_eq!(owners, after, "rebuild re-routed probes");
        // Bands are fixed at build time.
        assert_eq!(engine.bands(), bands.as_slice());
    }

    #[test]
    fn refresh_plan_recompiles_only_the_touched_shard() {
        let (q, p) = data(10, 90, 76);
        let mut engine = warmed(&p, &q, 3, ShardPolicy::RoundRobin);
        let request = QueryRequest::top_k(3);
        let before = Engine::plan(&engine, &request);
        // Route an insert; round-robin places id 90 on shard 90 % 3 == 0.
        let id = engine.insert(&[1.5; 8]).unwrap();
        assert_eq!(engine.owner_of(id), Some(0));
        let after = engine.refresh_plan(&before);
        assert_ne!(
            before.segments()[0],
            after.segments()[0],
            "the touched shard's segment must recompile"
        );
        assert_eq!(before.segments()[1], after.segments()[1], "untouched segment reused");
        assert_eq!(before.segments()[2], after.segments()[2], "untouched segment reused");
        // The stale plan panics, the refreshed one executes.
        let mut scratch = Engine::query_scratch(&engine);
        let out = engine.execute(&after, &q, &mut scratch).into_top_k();
        let (expect, _) = {
            let (ids, live) = engine.live_vectors();
            let (lists, stats) = Naive.row_top_k(&q, &live, 3);
            let mapped: Vec<Vec<ScoredItem>> = lists
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|it| ScoredItem { id: ids[it.id] as usize, score: it.score })
                        .collect()
                })
                .collect();
            (mapped, stats)
        };
        assert!(topk_equivalent(&out.lists, &expect, 1e-9));
    }

    #[test]
    fn image_kind_sniffing() {
        let (q, p) = data(5, 30, 80);
        let dir = std::env::temp_dir();
        let sharded_path = dir.join(format!("lemp-shard-sniff-{}.eng", std::process::id()));
        let single_path = dir.join(format!("lemp-single-sniff-{}.eng", std::process::id()));
        warmed(&p, &q, 2, ShardPolicy::RoundRobin).save(&sharded_path).unwrap();
        Lemp::builder().build(&p).save(&single_path).unwrap();
        assert!(is_sharded_image(&sharded_path).unwrap());
        assert!(!is_sharded_image(&single_path).unwrap());
        std::fs::remove_file(&sharded_path).ok();
        std::fs::remove_file(&single_path).ok();
        assert!(is_sharded_image(&sharded_path).is_err());
    }

    #[test]
    fn sample_vectors_strides_across_shards() {
        let (q, p) = data(5, 90, 90);
        let engine = warmed(&p, &q, 3, ShardPolicy::LengthBanded);
        let sample = engine.sample_vectors(12);
        assert_eq!(sample.len(), 12, "the budget must be met exactly when probes suffice");
        assert_eq!(sample.dim(), 8);
        assert_eq!(engine.sample_vectors(0).len(), 0);
        // A budget beyond the probe count caps at the probe count.
        assert_eq!(engine.sample_vectors(1000).len(), 90);
        // Tiny shards (7 shards over 3 probes) redistribute their unused
        // budget instead of under-filling.
        let (q, small) = data(3, 3, 91);
        let tiny = warmed(&small, &q, 7, ShardPolicy::RoundRobin);
        assert_eq!(tiny.sample_vectors(3).len(), 3);
        // Skewed sizes with the big shard *first* (the adversarial order
        // for forward-only redistribution): sizes [10, 1, 1], budget 9.
        let (q, p) = data(3, 12, 92);
        let mut assignment = vec![0u32; 12];
        assignment[10] = 1;
        assignment[11] = 2;
        let skewed = warmed(&p, &q, 3, ShardPolicy::Explicit(assignment));
        assert_eq!(skewed.shard_sizes(), vec![10, 1, 1]);
        assert_eq!(skewed.sample_vectors(9).len(), 9);
    }

    #[test]
    #[should_panic(expected = "requires a warmed engine")]
    fn shared_query_without_warm_panics() {
        let (q, p) = data(5, 40, 95);
        let engine = ShardedLemp::new(&p, 2);
        let mut scratch = engine.make_scratch();
        let _ = engine.row_top_k_shared(&q, 2, &mut scratch);
    }
}
