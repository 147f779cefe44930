//! Probe bucketization (Sec. 3.2 of the paper).
//!
//! Preprocessing sorts the probe vectors by decreasing length and cuts the
//! sorted sequence greedily into buckets of roughly similar length: a new
//! bucket starts when the current length falls below a fixed fraction of the
//! bucket's longest vector ("e.g., 90 % of l_b"). Two size constraints apply:
//! buckets must not be too small ("at least a certain number of vectors — 30
//! in our implementation") because per-bucket overheads would dominate, and
//! not larger than the processor cache ("we select a maximum bucket size
//! that ensures that all relevant data structures fit into the processor
//! cache"). Each bucket stores the Fig. 4a layout: original column id,
//! length, and unit direction per vector, ordered by decreasing length.
//!
//! Indexes over a bucket (sorted lists for COORD/INCR, TA lists, a cover
//! tree, L2AP, signatures) are built **lazily on first use** — buckets that
//! every query prunes are never indexed ("LEMP constructs indexes lazily on
//! first use to further reduce computational cost"). Dynamic edits keep the
//! built COORD/INCR lists and QUANT codes current in place and drop the
//! rest (see [`crate::dynamic`]). QUANT codes index the one codebook the
//! engine trains for all of its buckets ([`ProbeBuckets::codebook`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lemp_apss::{BlshIndex, L2apIndex};
use lemp_baselines::{CoverTree, TaIndex};
use lemp_linalg::VectorStore;

use crate::exec::BuildClock;
use crate::index::{self, ColumnIndex, RowIndex};
use crate::quant::{Codebook, QuantizedBucket};

/// Controls the greedy bucketization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketPolicy {
    /// A new bucket starts when the next length drops below
    /// `length_ratio · l_b` (default 0.9, as in the paper).
    pub length_ratio: f64,
    /// Minimum vectors per bucket (default 30, as in the paper); the final
    /// bucket may be smaller if fewer vectors remain.
    pub min_bucket: usize,
    /// Cache budget per bucket in bytes: vectors plus both sorted-list index
    /// layouts must fit (default 4 MiB). `0` disables the cap — the
    /// *cache-oblivious* configuration of the Sec. 6.2 "caching effects"
    /// ablation.
    pub cache_bytes: usize,
    /// Seed for randomized per-bucket structures (BLSH hyperplanes).
    pub seed: u64,
}

impl Default for BucketPolicy {
    fn default() -> Self {
        Self { length_ratio: 0.9, min_bucket: 30, cache_bytes: 4 << 20, seed: 0x1E4D }
    }
}

impl BucketPolicy {
    /// Largest admissible bucket for vectors of dimensionality `dim`.
    ///
    /// Footprint per vector: the unit direction (8·dim), length + id (12),
    /// and the two sorted-list layouts ((8+4)·dim each). The cap never drops
    /// below `min_bucket` — a bucket must be able to exist.
    pub fn max_bucket(&self, dim: usize) -> usize {
        if self.cache_bytes == 0 {
            return usize::MAX;
        }
        let per_vector = 32 * dim + 12;
        (self.cache_bytes / per_vector).max(self.min_bucket.max(1))
    }
}

/// Lazily constructed per-bucket retrieval indexes.
#[derive(Debug, Default)]
pub struct BucketIndexes {
    /// Column-wise sorted lists for COORD (Appendix A).
    pub coord: Option<ColumnIndex>,
    /// Row-wise sorted lists for INCR (Appendix A).
    pub incr: Option<RowIndex>,
    /// TA sorted lists over the bucket's *original* (length-scaled) vectors.
    pub ta: Option<TaIndex>,
    /// Cover tree over the bucket's original vectors.
    pub tree: Option<CoverTree>,
    /// L2AP index over the unit directions (records its index threshold).
    pub l2ap: Option<L2apIndex>,
    /// BayesLSH signatures over the unit directions.
    pub blsh: Option<BlshIndex>,
    /// Packed codes against the engine's codebook, for the LUT scoring
    /// scan.
    pub quant: Option<QuantizedBucket>,
}

/// One probe bucket in the Fig. 4a layout.
#[derive(Debug)]
pub struct Bucket {
    /// Original probe column ids, by decreasing vector length.
    pub ids: Vec<u32>,
    /// Vector lengths `‖p‖`, same order (non-increasing).
    pub lengths: Vec<f64>,
    /// Unit directions `p̄`, same order.
    pub dirs: VectorStore,
    /// The original (unnormalized) vectors, same order. Verification
    /// computes inner products on these so results are bit-identical to a
    /// naive scan of the input (re-scaling `‖p‖·p̄` rounds differently and
    /// can flip entries sitting exactly on the threshold).
    pub origs: VectorStore,
    /// `l_b` — the length of the bucket's longest vector.
    pub max_len: f64,
    /// Length of the bucket's shortest vector (sound negative-θ regions).
    pub min_len: f64,
    /// Lazily built indexes.
    pub indexes: BucketIndexes,
}

impl BucketIndexes {
    /// Drops the indexes that edits don't maintain in place.
    fn drop_unmaintained(&mut self) {
        self.ta = None;
        self.tree = None;
        self.l2ap = None;
        self.blsh = None;
    }
}

impl Bucket {
    /// A bucket over the given rows (already sorted by non-increasing
    /// length). Used by the initial bucketization and by dynamic
    /// maintenance when splitting oversized buckets.
    pub(crate) fn from_sorted_rows(ids: Vec<u32>, origs: VectorStore) -> Self {
        debug_assert_eq!(ids.len(), origs.len());
        let (lengths, dirs) = origs.decompose();
        debug_assert!(lengths.windows(2).all(|w| w[0] >= w[1]));
        let max_len = lengths.first().copied().unwrap_or(0.0);
        let min_len = lengths.last().copied().unwrap_or(0.0);
        Self { ids, lengths, dirs, origs, max_len, min_len, indexes: BucketIndexes::default() }
    }

    /// Inserts a vector at the position keeping lengths non-increasing
    /// (after existing entries of equal length). Built COORD/INCR lists
    /// take the new direction spliced in and built QUANT codes encode it
    /// against the engine's codebook (no training); the other indexes are
    /// dropped. Returns the insertion position.
    pub(crate) fn insert_sorted(&mut self, id: u32, v: &[f64], len: f64) -> usize {
        let pos = self.lengths.partition_point(|&l| l >= len);
        self.ids.insert(pos, id);
        self.lengths.insert(pos, len);
        let mut dir = v.to_vec();
        lemp_linalg::kernels::normalize(&mut dir);
        self.dirs.insert_row(pos, &dir).expect("dimension checked by caller");
        self.origs.insert_row(pos, v).expect("dimension checked by caller");
        self.max_len = self.lengths[0];
        self.min_len = *self.lengths.last().expect("non-empty after insert");
        let idx = &mut self.indexes;
        if let Some(coord) = &mut idx.coord {
            coord.insert(pos, &dir);
        }
        if let Some(incr) = &mut idx.incr {
            incr.insert(pos, &dir);
        }
        if let Some(quant) = &mut idx.quant {
            quant.insert(pos, &dir);
        }
        idx.drop_unmaintained();
        pos
    }

    /// Removes the vector at bucket-local position `lid`, cutting it out
    /// of built COORD/INCR lists and QUANT codes and dropping the other
    /// indexes. The bucket may become empty; the caller disposes of it.
    pub(crate) fn remove_at(&mut self, lid: usize) {
        self.ids.remove(lid);
        self.lengths.remove(lid);
        self.dirs.remove_row(lid);
        self.origs.remove_row(lid);
        self.max_len = self.lengths.first().copied().unwrap_or(0.0);
        self.min_len = self.lengths.last().copied().unwrap_or(0.0);
        let idx = &mut self.indexes;
        if let Some(coord) = &mut idx.coord {
            coord.remove(lid);
        }
        if let Some(incr) = &mut idx.incr {
            incr.remove(lid);
        }
        if let Some(quant) = &mut idx.quant {
            quant.remove(lid);
        }
        idx.drop_unmaintained();
    }

    /// Splits off the shorter half into a new bucket (used when dynamic
    /// inserts push a bucket past the cache cap). `self` keeps the longer
    /// half; QUANT codes split with the rows (each half's codes are what
    /// encoding it would give), every other index is dropped.
    pub(crate) fn split_off_tail(&mut self) -> Bucket {
        let mid = self.len() / 2;
        debug_assert!(mid >= 1 && mid < self.len(), "split needs ≥ 2 vectors");
        let mut quant = self.indexes.quant.take();
        let tail_quant = quant.as_mut().map(|q| q.split_off(mid));
        let tail_ids = self.ids.split_off(mid);
        let tail_rows: Vec<usize> = (mid..mid + tail_ids.len()).collect();
        let tail_origs = self.origs.select(&tail_rows);
        self.lengths.truncate(mid);
        let head_rows: Vec<usize> = (0..mid).collect();
        self.origs = self.origs.select(&head_rows);
        self.dirs = self.dirs.select(&head_rows);
        self.max_len = self.lengths[0];
        self.min_len = *self.lengths.last().expect("head non-empty");
        self.indexes = BucketIndexes { quant, ..BucketIndexes::default() };
        let mut tail = Bucket::from_sorted_rows(tail_ids, tail_origs);
        tail.indexes.quant = tail_quant;
        tail
    }

    /// Number of vectors in the bucket.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the bucket is empty (never produced by bucketization).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The original (unnormalized) vectors; the TA/cover-tree adapters
    /// index these directly since their algorithms work on raw inner
    /// products.
    pub fn original_vectors(&self) -> &VectorStore {
        &self.origs
    }

    /// Builds the COORD index if absent; returns whether it was built now.
    pub fn ensure_coord(&mut self) -> bool {
        if self.indexes.coord.is_none() {
            self.indexes.coord = Some(ColumnIndex::build(&self.dirs));
            true
        } else {
            false
        }
    }

    /// Builds the INCR index if absent; returns whether it was built now.
    pub fn ensure_incr(&mut self) -> bool {
        if self.indexes.incr.is_none() {
            self.indexes.incr = Some(RowIndex::build(&self.dirs));
            true
        } else {
            false
        }
    }

    /// Builds whichever sorted-list layouts (COORD, INCR) are absent — both
    /// from one sort per coordinate when both are ([`index::build_both`]);
    /// returns how many were built now.
    pub fn ensure_sorted_lists(&mut self) -> u64 {
        if self.indexes.coord.is_none() && self.indexes.incr.is_none() {
            let (coord, incr) = index::build_both(&self.dirs);
            self.indexes.coord = Some(coord);
            self.indexes.incr = Some(incr);
            return 2;
        }
        u64::from(self.ensure_coord()) + u64::from(self.ensure_incr())
    }

    /// Builds the TA index if absent; returns whether it was built now.
    pub fn ensure_ta(&mut self) -> bool {
        if self.indexes.ta.is_none() {
            self.indexes.ta = Some(TaIndex::build(&self.origs));
            true
        } else {
            false
        }
    }

    /// Builds the cover tree if absent; returns whether it was built now.
    pub fn ensure_tree(&mut self, base: f64) -> bool {
        if self.indexes.tree.is_none() {
            self.indexes.tree = Some(CoverTree::build(&self.origs, base));
            true
        } else {
            false
        }
    }

    /// Builds the L2AP index at threshold `t` if absent; returns whether it
    /// was built now.
    pub fn ensure_l2ap(&mut self, t: f64) -> bool {
        if self.indexes.l2ap.is_none() {
            self.indexes.l2ap = Some(L2apIndex::build(&self.dirs, t.clamp(1e-3, 1.0)));
            true
        } else {
            false
        }
    }

    /// Builds the BLSH signatures if absent; returns whether it was built
    /// now.
    pub fn ensure_blsh(&mut self, bits: usize, seed: u64) -> bool {
        if self.indexes.blsh.is_none() {
            self.indexes.blsh = Some(BlshIndex::build(&self.dirs, bits, seed));
            true
        } else {
            false
        }
    }

    /// Encodes the bucket against `codebook` if it holds no codes yet;
    /// returns whether it was encoded now.
    pub fn ensure_quant(&mut self, codebook: &Arc<Codebook>) -> bool {
        if self.indexes.quant.is_none() {
            self.indexes.quant = Some(QuantizedBucket::encode(Arc::clone(codebook), &self.dirs));
            true
        } else {
            false
        }
    }
}

/// Resident bytes of an engine's probe storage, split by representation —
/// the observable behind the quantization compression ratio (`/stats`
/// reports one of these per shard).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Full-precision residency: unit directions and original vectors
    /// (8 bytes per coordinate each) plus per-probe length and id.
    pub full_bytes: u64,
    /// Quantized residency: the codebook, packed codes and per-probe
    /// bounds, plus per-probe length and id; zero until the codebook is
    /// trained. The codebook counts its centroids only, not the transposed
    /// copy its nearest-centroid search keeps (as many bytes again).
    pub quantized_bytes: u64,
}

impl MemoryUsage {
    /// Element-wise accumulation (aggregating buckets or shards).
    pub fn merge(&mut self, other: &MemoryUsage) {
        self.full_bytes += other.full_bytes;
        self.quantized_bytes += other.quantized_bytes;
    }
}

/// The preprocessed probe side: all buckets, by decreasing length.
#[derive(Debug)]
pub struct ProbeBuckets {
    dim: usize,
    total: usize,
    buckets: Vec<Bucket>,
    prep_ns: u64,
    /// Bucketization epoch: a process-globally unique stamp refreshed on
    /// every mutable access, so a compiled [`crate::QueryPlan`] can detect
    /// *any* change to the bucketization it was derived from — including
    /// count-preserving edits (an insert absorbed by an existing bucket,
    /// a re-tune) that leave every other observable unchanged.
    epoch: u64,
    /// The codebook every bucket's QUANT codes index, once trained (see
    /// [`Self::ensure_quantized`]). While it is set, every bucket holds
    /// codes against it: edits encode new rows, never train.
    codebook: Option<Arc<Codebook>>,
}

/// Process-global epoch source: every fresh stamp is strictly greater than
/// every stamp handed out before, so no two bucketization states — across
/// engines, rebuilds, or reloads — ever share an epoch.
static BUCKETS_EPOCH: AtomicU64 = AtomicU64::new(0);

fn next_epoch() -> u64 {
    BUCKETS_EPOCH.fetch_add(1, Ordering::Relaxed)
}

impl ProbeBuckets {
    /// Partitions `probes` into buckets under `policy` (the preprocessing
    /// phase of Alg. 1, lines 1–6, minus the lazy index construction).
    pub fn build(probes: &VectorStore, policy: &BucketPolicy) -> Self {
        assert!(policy.length_ratio > 0.0 && policy.length_ratio <= 1.0);
        assert!(policy.min_bucket >= 1);
        let start = Instant::now();
        let n = probes.len();
        let lengths = probes.lengths();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            lengths[b as usize]
                .partial_cmp(&lengths[a as usize])
                .expect("finite lengths")
                .then(a.cmp(&b))
        });
        let max_bucket = policy.max_bucket(probes.dim().max(1));
        let mut buckets = Vec::new();
        let mut begin = 0usize;
        while begin < n {
            let bucket_max = lengths[order[begin] as usize];
            let cut = bucket_max * policy.length_ratio;
            let mut end = begin + 1;
            while end < n
                && end - begin < max_bucket
                && (end - begin < policy.min_bucket || lengths[order[end] as usize] >= cut)
            {
                end += 1;
            }
            let ids: Vec<u32> = order[begin..end].to_vec();
            let selected: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
            let origs = probes.select(&selected);
            let (blen, dirs) = origs.decompose();
            let min_len = blen.last().copied().unwrap_or(0.0);
            buckets.push(Bucket {
                ids,
                lengths: blen,
                dirs,
                origs,
                max_len: bucket_max,
                min_len,
                indexes: BucketIndexes::default(),
            });
            begin = end;
        }
        Self {
            dim: probes.dim(),
            total: n,
            buckets,
            prep_ns: start.elapsed().as_nanos() as u64,
            epoch: next_epoch(),
            codebook: None,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total probe vectors across buckets.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bucketization wall-clock in nanoseconds.
    pub fn prep_ns(&self) -> u64 {
        self.prep_ns
    }

    /// Buckets in decreasing-length order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Mutable access (lazy index construction). Refreshes the epoch:
    /// any plan compiled before this call is considered stale.
    pub fn buckets_mut(&mut self) -> &mut [Bucket] {
        self.epoch = next_epoch();
        &mut self.buckets
    }

    /// The current bucketization epoch (see the field docs); compiled
    /// plans record it and refuse to execute against a different one.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of buckets (the Sec. 6.2 ablation reports this: 403 vs 26 for
    /// cache-aware vs cache-oblivious KDD).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Probe-residency accounting: full-precision bytes vs the quantized
    /// representation's bytes, summed over buckets (the shared codebook
    /// counts once, by its centroids; see [`MemoryUsage::quantized_bytes`]).
    pub fn memory_usage(&self) -> MemoryUsage {
        let mut mem = MemoryUsage::default();
        if let Some(cb) = &self.codebook {
            mem.quantized_bytes += cb.resident_bytes() as u64;
        }
        for b in &self.buckets {
            let n = b.len() as u64;
            mem.full_bytes += n * (16 * self.dim as u64 + 12);
            if let Some(q) = &b.indexes.quant {
                mem.quantized_bytes += q.resident_bytes() as u64 + 12 * n;
            }
        }
        mem
    }

    /// Full mutable access to the bucket vector, for dynamic maintenance
    /// (insertions may add or split buckets, removals may drop them).
    pub(crate) fn buckets_vec_mut(&mut self) -> &mut Vec<Bucket> {
        self.epoch = next_epoch();
        &mut self.buckets
    }

    /// Adjusts the recorded probe total after dynamic edits.
    pub(crate) fn set_total(&mut self, total: usize) {
        self.total = total;
    }

    /// Reassembles a bucket set from persisted parts (engine loading).
    pub(crate) fn from_parts(dim: usize, total: usize, buckets: Vec<Bucket>) -> Self {
        Self { dim, total, buckets, prep_ns: 0, epoch: next_epoch(), codebook: None }
    }

    /// The codebook every bucket's QUANT codes index (`None` until trained
    /// or loaded).
    pub fn codebook(&self) -> Option<&Arc<Codebook>> {
        self.codebook.as_ref()
    }

    /// Attaches a loaded codebook (engine loading; the caller attaches the
    /// buckets' codes against it).
    pub(crate) fn set_codebook(&mut self, codebook: Arc<Codebook>) {
        self.codebook = Some(codebook);
    }

    /// Trains the engine's codebook at code width `bits` unless one exists,
    /// then encodes every bucket that holds no codes yet. The only place a
    /// codebook trains: warm-up, a rebuild and the first QUANT use of a
    /// cold engine come through here. `bits == 0` (quantization off) and an
    /// empty engine do nothing.
    pub(crate) fn ensure_quantized(&mut self, bits: u8, clock: &mut BuildClock) {
        if bits == 0 {
            return;
        }
        let start = Instant::now();
        let mut built = 0;
        if self.codebook.is_none() {
            let Some(cb) = Codebook::train_for(&self.buckets, bits) else { return };
            self.codebook = Some(Arc::new(cb));
            built += 1;
        }
        let cb = Arc::clone(self.codebook.as_ref().expect("trained above"));
        if self.buckets.iter().any(|b| b.indexes.quant.is_none()) {
            for bucket in self.buckets_mut() {
                built += u64::from(bucket.ensure_quant(&cb));
            }
        }
        if built > 0 {
            clock.ns += start.elapsed().as_nanos() as u64;
            clock.built += built;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_data::synthetic::GeneratorConfig;

    fn probes(n: usize, cov: f64, seed: u64) -> VectorStore {
        GeneratorConfig::gaussian(n, 10, cov).generate(seed)
    }

    fn check_invariants(pb: &ProbeBuckets, store: &VectorStore, policy: &BucketPolicy) {
        // Partition: every probe id appears exactly once.
        let mut seen = vec![false; store.len()];
        for b in pb.buckets() {
            for &id in &b.ids {
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "missing probes");
        // Ordering: bucket max lengths non-increasing; within bucket
        // non-increasing; max_len correct.
        let mut last_max = f64::INFINITY;
        for b in pb.buckets() {
            assert!(b.max_len <= last_max + 1e-12);
            last_max = b.max_len;
            assert!((b.lengths[0] - b.max_len).abs() < 1e-12);
            for w in b.lengths.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
            // directions are unit (or zero)
            for (lid, d) in b.dirs.iter().enumerate() {
                let n = lemp_linalg::kernels::norm(d);
                assert!(
                    (n - 1.0).abs() < 1e-9 || (n == 0.0 && b.lengths[lid] == 0.0),
                    "direction norm {n}"
                );
            }
            // size caps
            assert!(b.len() <= policy.max_bucket(store.dim()));
        }
        // Min-size: all but the last bucket hold at least min_bucket vectors
        // unless the cache cap is tighter.
        let cap = policy.max_bucket(store.dim());
        for b in &pb.buckets()[..pb.bucket_count().saturating_sub(1)] {
            assert!(b.len() >= policy.min_bucket.min(cap));
        }
    }

    #[test]
    fn bucketization_invariants_hold() {
        for cov in [0.1, 0.5, 2.0, 5.0] {
            let store = probes(500, cov, 42);
            let policy =
                BucketPolicy { min_bucket: 10, cache_bytes: 64 << 10, ..Default::default() };
            let pb = ProbeBuckets::build(&store, &policy);
            check_invariants(&pb, &store, &policy);
        }
    }

    #[test]
    fn ratio_rule_starts_new_buckets() {
        // Two well-separated length groups must never share a bucket (when
        // the min size allows the split).
        let mut rows = Vec::new();
        for _ in 0..40 {
            rows.push(vec![10.0, 0.0]);
        }
        for _ in 0..40 {
            rows.push(vec![1.0, 0.0]);
        }
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy = BucketPolicy { min_bucket: 5, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        for b in pb.buckets() {
            let lo = b.lengths.last().unwrap();
            assert!(b.max_len / lo < 2.0, "bucket mixes lengths {} and {lo}", b.max_len);
        }
    }

    #[test]
    fn min_bucket_prevents_tiny_buckets() {
        // Strictly decreasing lengths: the ratio rule alone would make
        // one-element buckets; min_bucket must override it.
        let rows: Vec<Vec<f64>> = (1..=100).map(|i| vec![1.5f64.powi(i), 0.0]).collect();
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy = BucketPolicy { min_bucket: 30, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        for b in &pb.buckets()[..pb.bucket_count() - 1] {
            assert!(b.len() >= 30);
        }
    }

    #[test]
    fn cache_cap_limits_bucket_size() {
        let store = probes(2000, 0.0, 7); // equal lengths: one giant bucket without the cap
        let policy = BucketPolicy { cache_bytes: 32 << 10, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        let cap = policy.max_bucket(store.dim());
        assert!(pb.bucket_count() > 1);
        for b in pb.buckets() {
            assert!(b.len() <= cap);
        }
        // Cache-oblivious: one bucket.
        let policy = BucketPolicy { cache_bytes: 0, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 1);
    }

    #[test]
    fn skewed_lengths_make_more_buckets_than_uniform() {
        let uniform = ProbeBuckets::build(&probes(1000, 0.05, 1), &BucketPolicy::default());
        let skewed = ProbeBuckets::build(&probes(1000, 3.0, 2), &BucketPolicy::default());
        assert!(
            skewed.bucket_count() > uniform.bucket_count(),
            "skewed {} vs uniform {}",
            skewed.bucket_count(),
            uniform.bucket_count()
        );
    }

    #[test]
    fn original_vectors_roundtrip() {
        let store = probes(50, 1.0, 9);
        let pb = ProbeBuckets::build(&store, &BucketPolicy::default());
        for b in pb.buckets() {
            let orig = b.original_vectors();
            for (lid, &id) in b.ids.iter().enumerate() {
                // bit-exact copies of the input rows
                assert_eq!(orig.vector(lid), store.vector(id as usize));
            }
        }
    }

    #[test]
    fn lazy_indexes_build_once() {
        let store = probes(60, 0.5, 11);
        let mut pb = ProbeBuckets::build(&store, &BucketPolicy::default());
        let b = &mut pb.buckets_mut()[0];
        assert!(b.ensure_coord());
        assert!(!b.ensure_coord());
        assert!(b.ensure_incr());
        assert!(!b.ensure_incr());
        assert!(b.ensure_ta());
        assert!(!b.ensure_ta());
        assert!(b.ensure_tree(1.3));
        assert!(!b.ensure_tree(1.3));
        assert!(b.ensure_l2ap(0.5));
        assert!(!b.ensure_l2ap(0.9)); // first threshold wins
        assert!(b.ensure_blsh(32, 1));
        assert!(!b.ensure_blsh(32, 1));
    }

    #[test]
    fn engine_codebook_trains_once_and_encodes_every_bucket() {
        let store = probes(300, 1.0, 13);
        let policy = BucketPolicy { min_bucket: 10, ..Default::default() };
        let mut pb = ProbeBuckets::build(&store, &policy);
        let n = pb.bucket_count() as u64;
        assert!(n > 1);
        let mut clock = BuildClock::default();
        pb.ensure_quantized(0, &mut clock); // quantization off
        assert!(pb.codebook().is_none() && clock.built == 0);
        pb.ensure_quantized(8, &mut clock);
        assert_eq!(clock.built, 1 + n, "one training, one encode per bucket");
        pb.ensure_quantized(8, &mut clock); // idempotent
        assert_eq!(clock.built, 1 + n);
        let cb = Arc::clone(pb.codebook().unwrap());
        for b in pb.buckets() {
            assert!(Arc::ptr_eq(b.indexes.quant.as_ref().unwrap().codebook(), &cb));
        }
        // A bucket without codes is encoded against the codebook; nothing
        // retrains.
        pb.buckets_mut()[1].indexes.quant = None;
        pb.ensure_quantized(8, &mut clock);
        assert_eq!(clock.built, 2 + n);
        assert!(Arc::ptr_eq(pb.codebook().unwrap(), &cb));
        let q = pb.buckets()[1].indexes.quant.as_ref().unwrap();
        assert_eq!(*q, QuantizedBucket::encode(Arc::clone(&cb), &pb.buckets()[1].dirs));
        let usage = pb.memory_usage();
        assert!(usage.quantized_bytes > cb.resident_bytes() as u64);
        assert!(usage.quantized_bytes < usage.full_bytes);
    }

    #[test]
    fn empty_probe_store_gives_no_buckets() {
        let store = VectorStore::empty(4).unwrap();
        let pb = ProbeBuckets::build(&store, &BucketPolicy::default());
        assert_eq!(pb.bucket_count(), 0);
        assert_eq!(pb.total(), 0);
    }
}
