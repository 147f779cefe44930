//! Shared execution plumbing: run configuration, lazy index construction,
//! method dispatch, and the verification step (Alg. 1 lines 14–16).

use std::time::Instant;

use lemp_baselines::types::Entry;
use lemp_linalg::{kernels, TopK};

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{blsh_bucket, coord, incr, l2ap_bucket, length, ta_bucket, tree_bucket};
use crate::algos::{MethodScratch, QueryCtx, Sink};
use crate::bucket::Bucket;
use crate::variant::{LempVariant, ResolvedMethod};

/// Options of one LEMP engine (builder-settable; defaults follow the
/// paper's experimental setup, Sec. 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which bucket method(s) to run.
    pub variant: LempVariant,
    /// Queries sampled by the tuner (Sec. 4.4).
    pub sample_size: usize,
    /// BLSH signature width in bits (paper: one signature of 32 bits).
    pub blsh_bits: usize,
    /// BLSH false-negative budget ε (paper: 0.03).
    pub blsh_eps: f64,
    /// Cover-tree base (paper: 1.3).
    pub tree_base: f64,
    /// Worker threads for the retrieval phase (1 = the paper's setting).
    pub threads: usize,
    /// L2AP index threshold used for Row-Top-k runs, where no a-priori
    /// lower bound on the local threshold exists (Above-θ runs derive it
    /// from `θ_b(q_max)` instead).
    pub l2ap_topk_threshold: f64,
    /// Code width for the quantized bucket representation (`0` disables
    /// quantization; valid widths are `1..=16`). When enabled, `warm`
    /// trains the engine's codebook, encodes every bucket against it, and
    /// the tuner decides per bucket whether the LUT scan or the variant's
    /// exact scan wins.
    pub quantize_bits: u8,
    /// Routes every bucket with codes to QUANT without pricing: the tuner
    /// skips its LUT-vs-exact comparison, so runs that must exercise the
    /// LUT kernel (benchmarks, smoke tests) scan every bucket through it.
    /// No effect unless `quantize_bits > 0`; exactness is unaffected either
    /// way (candidates are always re-verified against full precision).
    pub quantize_force: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            variant: LempVariant::LI,
            sample_size: 50,
            blsh_bits: 32,
            blsh_eps: 0.03,
            tree_base: 1.3,
            threads: 1,
            l2ap_topk_threshold: 0.05,
            quantize_bits: 0,
            quantize_force: false,
        }
    }
}

/// Accumulates lazy index-construction work (reported as preprocessing
/// time, as in the paper's Table 2 accounting).
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildClock {
    /// Nanoseconds spent building indexes.
    pub ns: u64,
    /// Number of indexes built.
    pub built: u64,
}

/// Returns whether `method` needs an index that `bucket` does not have yet.
/// QUANT codes never build per bucket: they come engine-wide from
/// [`crate::ProbeBuckets::ensure_quantized`] before the tuner can route a
/// bucket to QUANT.
pub(crate) fn needs_build(bucket: &Bucket, method: ResolvedMethod) -> bool {
    match method {
        ResolvedMethod::Length | ResolvedMethod::Quant => false,
        ResolvedMethod::Coord(_) => bucket.indexes.coord.is_none(),
        ResolvedMethod::Incr(_) => bucket.indexes.incr.is_none(),
        ResolvedMethod::Ta => bucket.indexes.ta.is_none(),
        ResolvedMethod::Tree => bucket.indexes.tree.is_none(),
        ResolvedMethod::L2ap => bucket.indexes.l2ap.is_none(),
        ResolvedMethod::Blsh => bucket.indexes.blsh.is_none(),
    }
}

/// Lazily builds the index `method` needs (Sec. 4.2: "LEMP constructs
/// indexes lazily on first use"). `l2ap_t` is the L2AP index threshold for
/// this bucket; `bucket_seed` derandomizes BLSH per bucket.
pub(crate) fn ensure_for(
    bucket: &mut Bucket,
    method: ResolvedMethod,
    l2ap_t: f64,
    cfg: &RunConfig,
    bucket_seed: u64,
    clock: &mut BuildClock,
) {
    if !needs_build(bucket, method) {
        return;
    }
    let start = Instant::now();
    let built = match method {
        ResolvedMethod::Length | ResolvedMethod::Quant => false,
        ResolvedMethod::Coord(_) => bucket.ensure_coord(),
        ResolvedMethod::Incr(_) => bucket.ensure_incr(),
        ResolvedMethod::Ta => bucket.ensure_ta(),
        ResolvedMethod::Tree => bucket.ensure_tree(cfg.tree_base),
        ResolvedMethod::L2ap => bucket.ensure_l2ap(l2ap_t),
        ResolvedMethod::Blsh => bucket.ensure_blsh(cfg.blsh_bits, bucket_seed),
    };
    if built {
        clock.ns += start.elapsed().as_nanos() as u64;
        clock.built += 1;
    }
}

/// Builds the sorted-list layouts `bucket` lacks, both from one sort per
/// coordinate when it has neither; each layout counts as one index.
pub(crate) fn ensure_sorted_lists(bucket: &mut Bucket, clock: &mut BuildClock) {
    let start = Instant::now();
    let built = bucket.ensure_sorted_lists();
    if built > 0 {
        clock.ns += start.elapsed().as_nanos() as u64;
        clock.built += built;
    }
}

/// Dispatches one bucket-method invocation; returns the number of inner
/// products the method computed internally (TA and Tree verify inline).
///
/// # Panics
/// If the index the method requires has not been built (callers go through
/// [`ensure_for`] first).
pub(crate) fn run_method(
    method: ResolvedMethod,
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
) -> u64 {
    match method {
        ResolvedMethod::Length => {
            length::run(ctx, bucket, sink);
            0
        }
        ResolvedMethod::Coord(phi) => {
            let index = bucket.indexes.coord.as_ref().expect("COORD index built");
            coord::run(ctx, bucket, index, phi, scratch, sink);
            0
        }
        ResolvedMethod::Incr(phi) => {
            let index = bucket.indexes.incr.as_ref().expect("INCR index built");
            incr::run(ctx, bucket, index, phi, scratch, sink);
            0
        }
        ResolvedMethod::Ta => {
            let index = bucket.indexes.ta.as_ref().expect("TA index built");
            ta_bucket::run(ctx, index, scratch, sink)
        }
        ResolvedMethod::Tree => {
            let tree = bucket.indexes.tree.as_ref().expect("tree built");
            tree_bucket::run(ctx, tree, scratch, sink)
        }
        ResolvedMethod::L2ap => {
            let index = bucket.indexes.l2ap.as_ref().expect("L2AP index built");
            l2ap_bucket::run(ctx, bucket, index, scratch, sink);
            0
        }
        ResolvedMethod::Blsh => {
            let index = bucket.indexes.blsh.as_ref().expect("BLSH index built");
            let table = blsh_table.expect("BLSH table precomputed");
            blsh_bucket::run(ctx, bucket, index, table, sink);
            0
        }
        ResolvedMethod::Quant => {
            let q = bucket.indexes.quant.as_ref().expect("QUANT codes encoded");
            crate::quant::run(ctx, bucket, q, &mut scratch.lut, &mut scratch.qscores, sink);
            0
        }
    }
}

/// Verification for Above-θ (Alg. 1 line 16): computes exact inner products
/// for unverified candidates, filters everything against θ, and appends
/// result entries. Returns `(inner products computed, results emitted)`.
pub(crate) fn verify_above(
    bucket: &Bucket,
    ctx: &QueryCtx<'_>,
    sink: &Sink,
    query_id: u32,
    entries: &mut Vec<Entry>,
) -> (u64, u64) {
    let mut results = 0u64;
    let mut keep = |lid: u32, value: f64| {
        if value >= ctx.theta {
            entries.push(Entry { query: query_id, probe: bucket.ids[lid as usize], value });
            results += 1;
        }
    };
    // Original-scale operands: bit-identical to a naive scan.
    kernels::dot_rows(ctx.scaled, candidate_rows(bucket, &sink.unverified), &mut keep);
    for &(lid, value) in &sink.verified {
        keep(lid, value);
    }
    (sink.unverified.len() as u64, results)
}

/// Verification for Row-Top-k: exact inner products (with `‖q‖ = 1`
/// semantics, Sec. 4.5) offered to the running top-k heap. Candidates with
/// `lid < skip_below` were already pushed by the warm-up seeding and are
/// skipped to avoid duplicates. Returns inner products computed.
pub(crate) fn verify_topk(
    bucket: &Bucket,
    ctx: &QueryCtx<'_>,
    sink: &Sink,
    skip_below: usize,
    top: &mut TopK,
) -> u64 {
    let mut dots = 0u64;
    let unseeded = sink.unverified.iter().filter(|&&lid| lid as usize >= skip_below);
    kernels::dot_rows(ctx.dir, candidate_rows(bucket, unseeded), |lid, value| {
        dots += 1;
        top.push(bucket.ids[lid as usize] as usize, value);
    });
    for &(lid, value) in &sink.verified {
        if (lid as usize) < skip_below {
            continue;
        }
        top.push(bucket.ids[lid as usize] as usize, value);
    }
    dots
}

/// The original vectors of the candidates `lids`, tagged with their local
/// ids, in list order — the rows [`kernels::dot_rows`] verifies.
pub(crate) fn candidate_rows<'a>(
    bucket: &'a Bucket,
    lids: impl IntoIterator<Item = &'a u32>,
) -> impl Iterator<Item = (u32, &'a [f64])> {
    lids.into_iter().map(move |&lid| (lid, bucket.origs.vector(lid as usize)))
}

/// Row-Top-k warm-up (Sec. 4.5): pushes the inner products of `dir` with
/// the `k` longest probes — the leading rows of the length-sorted buckets,
/// contiguous in each bucket — into `top`, in bucket order. `seeded(b, n)`
/// learns that bucket `b`'s first `n` rows were pushed (its verification
/// skips them). Returns the number of inner products computed.
pub(crate) fn seed_topk(
    buckets: &[Bucket],
    dir: &[f64],
    k: usize,
    top: &mut TopK,
    mut seeded: impl FnMut(usize, usize),
) -> u64 {
    let mut need = k;
    for (b, bucket) in buckets.iter().enumerate() {
        if need == 0 {
            break;
        }
        let n = need.min(bucket.len());
        let rows = bucket.origs.iter().take(n).enumerate();
        kernels::dot_rows(dir, rows, |lid, value| {
            top.push(bucket.ids[lid] as usize, value);
        });
        seeded(b, n);
        need -= n;
    }
    (k - need) as u64
}

/// Starts one Row-Top-k query: empties `top` and seeds it with the `k`
/// longest probes ([`seed_topk`]), recording per bucket how many leading
/// rows were pushed in `seed_counts`. The sweep then continues from the
/// seeded heap, so each query seeds exactly once. Returns the seed dots.
pub(crate) fn seed_query(
    buckets: &[Bucket],
    dir: &[f64],
    k: usize,
    top: &mut TopK,
    seed_counts: &mut Vec<usize>,
) -> u64 {
    top.clear();
    seed_counts.clear();
    seed_counts.resize(buckets.len(), 0);
    seed_topk(buckets, dir, k, top, |b, n| seed_counts[b] = n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketPolicy, ProbeBuckets};
    use lemp_data::synthetic::GeneratorConfig;
    use lemp_linalg::VectorStore;

    fn one_bucket(n: usize, seed: u64) -> ProbeBuckets {
        let store = GeneratorConfig::gaussian(n, 6, 0.3).generate(seed);
        let policy = BucketPolicy { min_bucket: n, length_ratio: 0.1, ..Default::default() };
        ProbeBuckets::build(&store, &policy)
    }

    #[test]
    fn ensure_for_builds_each_kind_once() {
        let mut pb = one_bucket(80, 1);
        let bucket = &mut pb.buckets_mut()[0];
        let cfg = RunConfig::default();
        let mut clock = BuildClock::default();
        for method in [
            ResolvedMethod::Length,
            ResolvedMethod::Coord(2),
            ResolvedMethod::Incr(3),
            ResolvedMethod::Ta,
            ResolvedMethod::Tree,
            ResolvedMethod::L2ap,
            ResolvedMethod::Blsh,
        ] {
            ensure_for(bucket, method, 0.5, &cfg, 7, &mut clock);
            ensure_for(bucket, method, 0.5, &cfg, 7, &mut clock); // idempotent
        }
        assert_eq!(clock.built, 6); // everything except Length
        assert!(clock.ns > 0);
        assert!(!needs_build(bucket, ResolvedMethod::Tree));
    }

    #[test]
    fn verify_above_filters_spurious_candidates() {
        let store = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let policy = BucketPolicy { min_bucket: 2, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        let bucket = &pb.buckets()[0];
        let dir = [1.0, 0.0];
        let ctx = QueryCtx {
            dir: &dir,
            len: 2.0,
            theta: 1.5,
            theta_over_len: 0.75,
            local_threshold: 0.75,
            scaled: &[2.0, 0.0],
        };
        let sink = Sink { unverified: vec![0, 1], verified: vec![] };
        let mut entries = Vec::new();
        let (dots, results) = verify_above(bucket, &ctx, &sink, 9, &mut entries);
        assert_eq!(dots, 2);
        assert_eq!(results, 1); // only the aligned probe reaches 2.0 ≥ 1.5
        assert_eq!(entries[0].query, 9);
        assert!((entries[0].value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn verify_topk_skips_seeded_prefix() {
        let mut pb = one_bucket(10, 3);
        let bucket = &mut pb.buckets_mut()[0];
        let dir: Vec<f64> = bucket.dirs.vector(0).to_vec();
        let ctx = QueryCtx {
            dir: &dir,
            len: 1.0,
            theta: f64::NEG_INFINITY,
            theta_over_len: f64::NEG_INFINITY,
            local_threshold: f64::NEG_INFINITY,
            scaled: &dir,
        };
        let sink = Sink { unverified: (0..10).collect(), verified: vec![] };
        let mut top = TopK::new(10);
        let dots = verify_topk(bucket, &ctx, &sink, 3, &mut top);
        assert_eq!(dots, 7, "first three lids must be skipped");
        assert_eq!(top.len(), 7);
        // Every candidate count 0..=9 (whole groups of four plus trailing
        // groups of one to three), lids out of order, `skip_below` at every
        // position: the survivors are exactly the unseeded lids.
        let order = [7u32, 2, 9, 0, 5, 3, 8, 1, 6];
        for count in 0..=order.len() {
            for skip in 0..=10 {
                let sink = Sink { unverified: order[..count].to_vec(), verified: vec![] };
                let mut top = TopK::new(10);
                let dots = verify_topk(bucket, &ctx, &sink, skip, &mut top);
                let mut got: Vec<usize> = top.drain_sorted().iter().map(|s| s.id).collect();
                got.sort_unstable();
                let mut want: Vec<usize> = order[..count]
                    .iter()
                    .filter(|&&lid| lid as usize >= skip)
                    .map(|&lid| bucket.ids[lid as usize] as usize)
                    .collect();
                want.sort_unstable();
                assert_eq!(dots, want.len() as u64, "count={count} skip={skip}");
                assert_eq!(got, want, "count={count} skip={skip}");
            }
        }
    }

    /// The retained `(id, score bits)`, best first.
    fn retained(mut top: TopK) -> Vec<(usize, u64)> {
        top.drain_sorted().iter().map(|s| (s.id, s.score.to_bits())).collect()
    }

    /// A 9-d bucket (past the SIMD threshold, with a one-element tail)
    /// whose probes come in groups of exact duplicates, so many candidates
    /// tie: every k-th score sits inside a tie group.
    fn tied_bucket() -> ProbeBuckets {
        let base = GeneratorConfig::gaussian(4, 9, 0.3).generate(11);
        let rows: Vec<Vec<f64>> = [0, 1, 0, 2, 1, 0, 3, 2, 0, 1, 3, 0, 2]
            .iter()
            .map(|&r| base.vector(r).to_vec())
            .collect();
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy =
            BucketPolicy { min_bucket: rows.len(), length_ratio: 0.1, ..Default::default() };
        ProbeBuckets::build(&store, &policy)
    }

    #[test]
    fn batched_verification_matches_one_dot_at_a_time_under_ties() {
        let pb = tied_bucket();
        let bucket = &pb.buckets()[0];
        assert_eq!(pb.bucket_count(), 1);
        let n = bucket.len() as u32;
        let query = GeneratorConfig::gaussian(1, 9, 0.3).generate(12);
        let scaled = query.vector(0).to_vec();
        let len = kernels::norm(&scaled);
        let dir: Vec<f64> = scaled.iter().map(|x| x / len).collect();
        let orders: [Vec<u32>; 3] =
            [(0..n).collect(), (0..n).rev().collect(), (0..n).map(|i| (i * 5) % n).collect()];
        for unverified in &orders {
            // A verified pair (as TA/Tree emit) rides behind the dots.
            let verified = vec![(unverified[0], 0.25)];
            let sink = Sink { unverified: unverified.clone(), verified };
            for k in 1..=n as usize {
                for skip in [0, 2, 5] {
                    let ctx = QueryCtx {
                        dir: &dir,
                        len: 1.0,
                        theta: f64::NEG_INFINITY,
                        theta_over_len: f64::NEG_INFINITY,
                        local_threshold: f64::NEG_INFINITY,
                        scaled: &dir,
                    };
                    let mut top = TopK::new(k);
                    let dots = verify_topk(bucket, &ctx, &sink, skip, &mut top);
                    // Reference: one `kernels::dot` per candidate, same order.
                    let mut want_top = TopK::new(k);
                    let mut want_dots = 0u64;
                    for &lid in &sink.unverified {
                        let l = lid as usize;
                        if l >= skip {
                            let v = kernels::dot(&dir, bucket.origs.vector(l));
                            want_top.push(bucket.ids[l] as usize, v);
                            want_dots += 1;
                        }
                    }
                    for &(lid, v) in &sink.verified {
                        if lid as usize >= skip {
                            want_top.push(bucket.ids[lid as usize] as usize, v);
                        }
                    }
                    assert_eq!(dots, want_dots, "k={k} skip={skip}");
                    let ctx = format!("k={k} skip={skip} {unverified:?}");
                    assert_eq!(retained(top), retained(want_top), "{ctx}");
                }
            }
            // Above-θ at every candidate's score as θ: same entries, same
            // order as one dot at a time.
            for &cut in &sink.unverified {
                let theta = kernels::dot(&scaled, bucket.origs.vector(cut as usize));
                let ctx = QueryCtx {
                    dir: &dir,
                    len,
                    theta,
                    theta_over_len: theta / len,
                    local_threshold: theta / (len * bucket.max_len),
                    scaled: &scaled,
                };
                let mut entries = Vec::new();
                let (dots, results) = verify_above(bucket, &ctx, &sink, 4, &mut entries);
                let mut want = Vec::new();
                for &lid in &sink.unverified {
                    let value = kernels::dot(&scaled, bucket.origs.vector(lid as usize));
                    want.push((lid, value));
                }
                want.extend(sink.verified.iter().copied());
                let want: Vec<(u32, u64)> = want
                    .into_iter()
                    .filter(|&(_, v)| v >= theta)
                    .map(|(lid, v)| (bucket.ids[lid as usize], v.to_bits()))
                    .collect();
                let got: Vec<(u32, u64)> =
                    entries.iter().map(|e| (e.probe, e.value.to_bits())).collect();
                assert_eq!(dots, n as u64);
                assert_eq!(results, want.len() as u64);
                assert!(entries.iter().all(|e| e.query == 4));
                assert_eq!(got, want, "theta={theta}");
            }
        }
    }

    #[test]
    fn seeding_pushes_the_k_longest_probes_across_buckets() {
        let store = GeneratorConfig::gaussian(200, 9, 0.8).generate(13);
        let pb = ProbeBuckets::build(&store, &BucketPolicy::default());
        assert!(pb.bucket_count() > 2);
        let dir = pb.buckets()[1].dirs.vector(0).to_vec();
        let first = pb.buckets()[0].len();
        for k in [0, 1, 3, 4, 5, first, first + 1, first + 6, store.len(), store.len() + 3] {
            let mut top = TopK::new(k.max(1));
            let mut counts = vec![0; pb.bucket_count()];
            let dots = seed_topk(pb.buckets(), &dir, k, &mut top, |b, n| counts[b] = n);
            // Reference: the leading rows in bucket order, one dot each.
            let mut want = TopK::new(k.max(1));
            let mut want_counts = vec![0; pb.bucket_count()];
            let mut need = k;
            for (b, bucket) in pb.buckets().iter().enumerate() {
                for lid in 0..bucket.len().min(need) {
                    want.push(
                        bucket.ids[lid] as usize,
                        kernels::dot(&dir, bucket.origs.vector(lid)),
                    );
                    want_counts[b] += 1;
                }
                need -= want_counts[b];
            }
            assert_eq!(dots, k.min(store.len()) as u64, "k={k}");
            assert_eq!(counts, want_counts, "k={k}");
            assert_eq!(retained(top), retained(want), "k={k}");
        }
    }
}
