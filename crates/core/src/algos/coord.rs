//! COORD: coordinate-based pruning (Sec. 4.2, Alg. 2 of the paper).
//!
//! For each focus coordinate `f ∈ F`, the feasible region `[L_f, U_f]`
//! (see [`crate::bounds::feasible_region`]) locates a contiguous *scan
//! range* in the coordinate's sorted list via binary search; vectors outside
//! any range are infeasible. A counter per vector (the CP array, Fig. 4e)
//! tallies in how many ranges it appears; candidates are exactly the vectors
//! seen in **all** `|F|` ranges (Alg. 2 line 9).
//!
//! Per Appendix A, candidate enumeration rescans the *smallest* range
//! instead of the whole CP array — every candidate must appear in it.

use crate::bounds::feasible_region;
use crate::bucket::Bucket;
use crate::index::ColumnIndex;

use super::{select_focus, MethodScratch, QueryCtx, Sink};

/// Runs COORD with `phi` focus coordinates; pushes unverified candidates.
pub fn run(
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    index: &ColumnIndex,
    phi: usize,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
) {
    select_focus(ctx.dir, phi, &mut scratch.focus);
    if scratch.focus.is_empty() {
        // Zero query direction: no coordinate can prune; fall back to the
        // whole bucket (verification decides).
        sink.unverified.extend(0..bucket.len() as u32);
        return;
    }
    // Scan ranges per focus coordinate; smallest first (Appendix A).
    scratch.ranges.clear();
    for &f in &scratch.focus {
        let (lo, hi) = feasible_region(ctx.dir[f], ctx.local_threshold);
        scratch.ranges.push(index.scan_range(f, lo, hi));
    }
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..scratch.focus.len());
    // Stable: ranges of equal length keep their focus order.
    order.sort_by_key(|&i| scratch.ranges[i].1 - scratch.ranges[i].0);
    // An empty range on any coordinate empties the candidate set.
    if scratch.ranges[order[0]].0 == scratch.ranges[order[0]].1 {
        return;
    }
    let needed = scratch.focus.len() as u16;
    if needed == 1 {
        let f = scratch.focus[order[0]];
        sink.unverified.extend_from_slice(index.lids(f, scratch.ranges[order[0]]));
        return;
    }
    scratch.cp.begin();
    for &i in order.iter() {
        let f = scratch.focus[i];
        for &lid in index.lids(f, scratch.ranges[i]) {
            scratch.cp.bump(lid);
        }
    }
    let first = order[0];
    for &lid in index.lids(scratch.focus[first], scratch.ranges[first]) {
        if scratch.cp.count(lid) == needed {
            sink.unverified.push(lid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketPolicy, ProbeBuckets};
    use lemp_linalg::{kernels, VectorStore};

    /// The Fig. 4 bucket: lengths and normalized directions from Fig. 4a.
    fn fig4_probes() -> VectorStore {
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
        VectorStore::from_rows(&rows).unwrap()
    }

    fn single_bucket(store: &VectorStore) -> ProbeBuckets {
        let policy =
            BucketPolicy { min_bucket: store.len(), length_ratio: 0.5, ..Default::default() };
        let pb = ProbeBuckets::build(store, &policy);
        assert_eq!(pb.bucket_count(), 1);
        pb
    }

    #[test]
    fn reproduces_fig4_candidate_set() {
        // Query of Fig. 4d: ‖q‖ = 0.5, q̄ = (0.70, 0.3, 0.4, 0.51), θ = 0.9,
        // θ_b(q) = 0.9, F = {1, 4} → C_b = {1, 4, 5} (one-based) = {0, 3, 4}.
        let store = fig4_probes();
        let mut pb = single_bucket(&store);
        let bucket = &mut pb.buckets_mut()[0];
        bucket.ensure_coord();
        let dir = [0.70, 0.3, 0.4, 0.51];
        let scaled: Vec<f64> = dir.iter().map(|x| x * 0.5).collect();
        let ctx = QueryCtx {
            dir: &dir,
            len: 0.5,
            theta: 0.9,
            theta_over_len: 0.9 / 0.5,
            local_threshold: 0.9,
            scaled: &scaled,
        };
        let mut scratch = MethodScratch::new(bucket.len());
        let mut sink = Sink::default();
        run(&ctx, bucket, bucket.indexes.coord.as_ref().unwrap(), 2, &mut scratch, &mut sink);
        let mut got = sink.unverified.clone();
        got.sort_unstable();
        // Bucket order may differ from Fig. 4a (ties of length 1.9/1.8 are
        // broken by id); map lids back to store ids for the comparison.
        let bucket_ref = &pb.buckets()[0];
        let ids: Vec<u32> = got.iter().map(|&lid| bucket_ref.ids[lid as usize]).collect();
        let mut ids = ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 3, 4]);
    }

    #[test]
    fn candidates_are_superset_of_true_results() {
        let store = lemp_data::synthetic::GeneratorConfig::gaussian(200, 8, 0.3).generate(21);
        let queries = lemp_data::synthetic::GeneratorConfig::gaussian(30, 8, 0.3).generate(22);
        let mut pb = single_bucket(&store);
        let bucket = &mut pb.buckets_mut()[0];
        bucket.ensure_coord();
        let index = bucket.indexes.coord.as_ref().unwrap();
        let mut scratch = MethodScratch::new(bucket.len());
        let mut sink = Sink::default();
        let theta = 0.8;
        for q in queries.iter() {
            let qlen = kernels::norm(q);
            let dir: Vec<f64> = q.iter().map(|x| x / qlen).collect();
            let th_b = theta / (qlen * bucket.max_len);
            if th_b > 1.0 {
                continue;
            }
            for phi in 1..=4 {
                sink.clear();
                let ctx = QueryCtx {
                    dir: &dir,
                    len: qlen,
                    theta,
                    theta_over_len: theta / qlen,
                    local_threshold: th_b,
                    scaled: q,
                };
                run(&ctx, bucket, index, phi, &mut scratch, &mut sink);
                // every true result must be in the candidate set
                for (lid, &id) in bucket.ids.iter().enumerate() {
                    let dot = kernels::dot(q, store.vector(id as usize));
                    if dot >= theta {
                        assert!(
                            sink.unverified.contains(&(lid as u32)),
                            "phi={phi}: missing true result lid {lid} (dot {dot})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn larger_phi_never_grows_candidates() {
        let store = lemp_data::synthetic::GeneratorConfig::gaussian(300, 10, 0.2).generate(31);
        let mut pb = single_bucket(&store);
        let bucket = &mut pb.buckets_mut()[0];
        bucket.ensure_coord();
        let index = bucket.indexes.coord.as_ref().unwrap();
        let mut scratch = MethodScratch::new(bucket.len());
        let q = store.vector(0).to_vec();
        let qlen = kernels::norm(&q);
        let dir: Vec<f64> = q.iter().map(|x| x / qlen).collect();
        let ctx = QueryCtx {
            dir: &dir,
            len: qlen,
            theta: 0.9 * qlen * bucket.max_len,
            theta_over_len: 0.9 * bucket.max_len,
            local_threshold: 0.9,
            scaled: &q,
        };
        let mut last = usize::MAX;
        for phi in 1..=5 {
            let mut sink = Sink::default();
            run(&ctx, bucket, index, phi, &mut scratch, &mut sink);
            assert!(
                sink.unverified.len() <= last,
                "phi={phi} grew candidates {} > {last}",
                sink.unverified.len()
            );
            last = sink.unverified.len();
        }
    }

    #[test]
    fn zero_direction_falls_back_to_full_bucket() {
        let store = fig4_probes();
        let mut pb = single_bucket(&store);
        let bucket = &mut pb.buckets_mut()[0];
        bucket.ensure_coord();
        let dir = [0.0; 4];
        let ctx = QueryCtx {
            dir: &dir,
            len: 1.0,
            theta: -1.0,
            theta_over_len: -1.0,
            local_threshold: -0.5,
            scaled: &dir,
        };
        let mut scratch = MethodScratch::new(bucket.len());
        let mut sink = Sink::default();
        run(&ctx, bucket, bucket.indexes.coord.as_ref().unwrap(), 3, &mut scratch, &mut sink);
        assert_eq!(sink.unverified.len(), bucket.len());
    }
}
