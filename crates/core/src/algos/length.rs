//! LENGTH: length-based pruning (Sec. 4.1 of the paper).
//!
//! "LENGTH scans the bucket `P_b` in order. When processing vector `p`, we
//! check whether `‖p‖ ≥ θ/‖q‖`; we precompute `θ/‖q‖` to make this check
//! efficient. If `p` qualifies, we add it to the candidate set `C_b`.
//! Otherwise, we stop processing bucket `P_b`."
//!
//! Because bucket vectors are sorted by decreasing length, the qualifying
//! vectors form a prefix — one binary search finds its end, and the prefix
//! is emitted as a run of local ids, which is exactly why the paper
//! recommends LENGTH "when buckets are small or the local threshold is
//! low".

use crate::bucket::Bucket;

use super::{QueryCtx, Sink};

/// Runs LENGTH: pushes the length-qualified prefix of the bucket as
/// unverified candidates.
pub fn run(ctx: &QueryCtx<'_>, bucket: &Bucket, sink: &mut Sink) {
    // Tiny downward slack: `θ/‖q‖` and `‖p‖` are derived (division, sqrt)
    // quantities, so a pair sitting exactly on the threshold could
    // otherwise be lost to rounding.
    let cut = ctx.theta_over_len - 1e-12 * ctx.theta_over_len.abs();
    let n = bucket.lengths.partition_point(|&l| l >= cut);
    sink.unverified.extend(0..n as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketPolicy, ProbeBuckets};
    use lemp_linalg::VectorStore;

    fn buckets_of(lengths: &[f64]) -> ProbeBuckets {
        let rows: Vec<Vec<f64>> = lengths.iter().map(|&l| vec![l, 0.0]).collect();
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy = BucketPolicy { min_bucket: lengths.len().max(1), ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 1);
        pb
    }

    fn ctx_for<'a>(theta: f64, q_len: f64, dir: &'a [f64]) -> QueryCtx<'a> {
        QueryCtx {
            dir,
            len: q_len,
            theta,
            theta_over_len: theta / q_len,
            local_threshold: 0.5,
            scaled: dir,
        }
    }

    #[test]
    fn qualifying_prefix_matches_paper_example() {
        // Sec. 4.1 example: bucket lengths (2.0, 1.9, 1.9, 1.8, 1.8, 1.8),
        // q = (1,1,1,1)ᵀ → ‖q‖ = 2, θ = 3.8 → θ/‖q‖ = 1.9 → C_b = {1, 2, 3}
        // (one-based) = lids {0, 1, 2}.
        let pb = buckets_of(&[2.0, 1.9, 1.9, 1.8, 1.8, 1.8]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(3.8, 2.0, &dir);
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert_eq!(sink.unverified, vec![0, 1, 2]);
        assert!(sink.verified.is_empty());
    }

    #[test]
    fn no_candidates_when_cut_exceeds_max() {
        let pb = buckets_of(&[1.0, 0.9]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(10.0, 1.0, &dir);
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert!(sink.unverified.is_empty());
    }

    /// The per-row scan LENGTH ran before the binary search, kept as the
    /// reference: push while `len >= cut`, stop at the first row below.
    fn scan_reference(ctx: &QueryCtx<'_>, lengths: &[f64]) -> Vec<u32> {
        let cut = ctx.theta_over_len - 1e-12 * ctx.theta_over_len.abs();
        let mut out = Vec::new();
        for (lid, &len) in lengths.iter().enumerate() {
            if len >= cut {
                out.push(lid as u32);
            } else {
                break;
            }
        }
        out
    }

    #[test]
    fn binary_search_matches_the_scan_at_every_cut() {
        use rand::Rng;
        let mut rng = lemp_data::rng::seeded(0x1E_4917);
        for case in 0..40 {
            // Descending lengths drawn from a few levels (ties), with ±0
            // rows at the tail in some cases.
            let n = 1 + case % 13;
            let mut lengths: Vec<f64> =
                (0..n).map(|_| (rng.random::<u64>() % 6) as f64 * 0.25).collect();
            if case % 3 == 0 {
                lengths.push(0.0);
                lengths.push(-0.0);
            }
            lengths.sort_by(|a, b| b.total_cmp(a));
            let mut pb = buckets_of(&lengths);
            // Norms are never −0; set the lengths directly so a −0 row
            // sits behind a +0 one.
            pb.buckets_mut()[0].lengths.clone_from(&lengths);
            let bucket = &pb.buckets()[0];
            // Cuts at, between and outside every length, ±0 and NaN.
            let mut cuts = vec![f64::NAN, 0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::INFINITY];
            for w in bucket.lengths.windows(2) {
                cuts.push((w[0] + w[1]) / 2.0);
            }
            for &l in &bucket.lengths {
                cuts.extend([l, l + 0.1, l - 0.1, l * (1.0 + 1e-13), l * (1.0 - 1e-13)]);
            }
            let dir = [1.0, 0.0];
            for theta in cuts {
                let ctx = ctx_for(theta, 1.0, &dir);
                let mut sink = Sink::default();
                run(&ctx, bucket, &mut sink);
                let want = scan_reference(&ctx, &bucket.lengths);
                assert_eq!(sink.unverified, want, "case {case}: cut {theta} over {lengths:?}");
            }
        }
    }

    #[test]
    fn everything_qualifies_at_nonpositive_cut() {
        let pb = buckets_of(&[1.0, 0.5, 0.1]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(-1.0, 1.0, &dir); // θ < 0 → cut < 0 → all pass
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert_eq!(sink.unverified, vec![0, 1, 2]);
    }
}
