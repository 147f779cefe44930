//! Sorted-list indexes over a bucket's unit directions (Sec. 4.2, App. A).
//!
//! Both layouts hold, per coordinate `f`, the bucket's vectors sorted by
//! decreasing `p̄_f` (Fig. 4c). The *storage layout* differs per consumer,
//! exactly as Appendix A prescribes:
//!
//! * [`ColumnIndex`] (for COORD) — values and local ids in **separate
//!   arrays**: "the data values are accessed only during binary search to
//!   determine the scan range, and the local identifiers are accessed only
//!   during the actual scan phase", so the scan touches a minimal number of
//!   cache lines.
//! * [`RowIndex`] (for INCR) — `(value, lid)` **pairs**: "INCR needs access
//!   to both coordinate values and local identifiers during scanning, we
//!   store the sorted lists row-wise."
//!
//! Scan ranges for a feasible region `[L_f, U_f]` are located by binary
//! search on the descending value arrays.
//!
//! Both layouts come from the same sort. Per coordinate, each row's value
//! becomes an integer key: the order-preserving `u64` image of `v + 0.0`,
//! inverted so ascending keys are descending values (adding `0.0` folds
//! −0.0 into +0.0, which compare equal as values). `(key, lid)` pairs then
//! sort with one unstable integer sort, so ties on a value break on the
//! ascending local id, and the lists hold the rows' original values (−0.0
//! kept). Where a bucket needs both layouts at once (warm-up, the tuner of
//! the INCR variants, the adaptive arm menu) [`build_both`] sorts each
//! coordinate once for the two of them.
//!
//! Dynamic edits splice one bucket row in or out of both layouts in O(r·n)
//! instead of re-sorting. The spliced lists equal a fresh `build` over the
//! edited directions: shifting the local ids at or above the edit position
//! keeps every list ordered by (descending value, ascending id), so the new
//! entry lands where the build's tie order puts it.

use lemp_linalg::VectorStore;

/// Column-wise sorted-list index (COORD layout).
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    /// `vals[f]` — coordinate values sorted descending.
    vals: Vec<Vec<f64>>,
    /// `lids[f]` — local ids aligned with `vals[f]`.
    lids: Vec<Vec<u32>>,
}

impl ColumnIndex {
    /// Builds the per-coordinate sorted lists; O(r·n·log n).
    pub fn build(dirs: &VectorStore) -> Self {
        let mut index = Self::with_dim(dirs.dim());
        sorted_lists(dirs, |list| index.push_list(list));
        index
    }

    fn with_dim(dim: usize) -> Self {
        Self { vals: Vec::with_capacity(dim), lids: Vec::with_capacity(dim) }
    }

    fn push_list(&mut self, list: &[(f64, u32)]) {
        self.vals.push(list.iter().map(|e| e.0).collect());
        self.lids.push(list.iter().map(|e| e.1).collect());
    }

    /// Number of coordinates (lists).
    pub fn dim(&self) -> usize {
        self.vals.len()
    }

    /// List length (same for every coordinate).
    pub fn list_len(&self) -> usize {
        self.vals.first().map_or(0, Vec::len)
    }

    /// Half-open index range of list `f` holding values in `[lo, hi]`.
    #[inline]
    pub fn scan_range(&self, f: usize, lo: f64, hi: f64) -> (usize, usize) {
        range_desc(&self.vals[f], lo, hi)
    }

    /// The local ids of list `f` within an index range.
    #[inline]
    pub fn lids(&self, f: usize, range: (usize, usize)) -> &[u32] {
        &self.lids[f][range.0..range.1]
    }

    /// Splices in the direction `dir` that the bucket inserted at local
    /// position `pos` (rows at or after `pos` moved up by one).
    pub(crate) fn insert(&mut self, pos: usize, dir: &[f64]) {
        let pos = pos as u32;
        for ((vals, lids), &v) in self.vals.iter_mut().zip(&mut self.lids).zip(dir) {
            shift_up(lids.iter_mut(), pos);
            // Ties on `v` sit in `lo..hi` by ascending id (`==` treats
            // ±0.0 as one value, as the build's key does).
            let lo = vals.partition_point(|&w| w > v);
            let hi = vals.partition_point(|&w| w >= v);
            let at = lo + lids[lo..hi].partition_point(|&l| l < pos);
            vals.insert(at, v);
            lids.insert(at, pos);
        }
    }

    /// Cuts out the row the bucket removed at local position `pos` (rows
    /// after it moved down by one).
    pub(crate) fn remove(&mut self, pos: usize) {
        let pos = pos as u32;
        for (vals, lids) in self.vals.iter_mut().zip(&mut self.lids) {
            let at = lids.iter().position(|&l| l == pos).expect("removed row is indexed");
            vals.remove(at);
            lids.remove(at);
            shift_down(lids.iter_mut(), pos);
        }
    }
}

/// Row-wise sorted-list index (INCR layout).
#[derive(Debug, Clone)]
pub struct RowIndex {
    /// `entries[f]` — `(value, lid)` sorted by descending value.
    entries: Vec<Vec<(f64, u32)>>,
}

impl RowIndex {
    /// Builds the per-coordinate sorted lists; O(r·n·log n).
    pub fn build(dirs: &VectorStore) -> Self {
        let mut index = Self { entries: Vec::with_capacity(dirs.dim()) };
        sorted_lists(dirs, |list| index.entries.push(list.to_vec()));
        index
    }

    /// Number of coordinates (lists).
    pub fn dim(&self) -> usize {
        self.entries.len()
    }

    /// Half-open index range of list `f` holding values in `[lo, hi]`.
    #[inline]
    pub fn scan_range(&self, f: usize, lo: f64, hi: f64) -> (usize, usize) {
        let list = &self.entries[f];
        let start = list.partition_point(|&(v, _)| v > hi);
        let end = list.partition_point(|&(v, _)| v >= lo);
        (start, end.max(start))
    }

    /// The `(value, lid)` entries of list `f` within an index range.
    #[inline]
    pub fn entries(&self, f: usize, range: (usize, usize)) -> &[(f64, u32)] {
        &self.entries[f][range.0..range.1]
    }

    /// Splices in the direction `dir` that the bucket inserted at local
    /// position `pos` (see [`ColumnIndex::insert`]).
    pub(crate) fn insert(&mut self, pos: usize, dir: &[f64]) {
        let pos = pos as u32;
        for (list, &v) in self.entries.iter_mut().zip(dir) {
            shift_up(list.iter_mut().map(|e| &mut e.1), pos);
            let at = list.partition_point(|&(w, l)| w > v || (w == v && l < pos));
            list.insert(at, (v, pos));
        }
    }

    /// Cuts out the row the bucket removed at local position `pos` (see
    /// [`ColumnIndex::remove`]).
    pub(crate) fn remove(&mut self, pos: usize) {
        let pos = pos as u32;
        for list in &mut self.entries {
            let at = list.iter().position(|e| e.1 == pos).expect("removed row is indexed");
            list.remove(at);
            shift_down(list.iter_mut().map(|e| &mut e.1), pos);
        }
    }
}

/// Renumbers local ids for a row inserted at `pos`.
fn shift_up<'a>(lids: impl Iterator<Item = &'a mut u32>, pos: u32) {
    for l in lids {
        *l += u32::from(*l >= pos);
    }
}

/// Renumbers local ids for the row removed at `pos`.
fn shift_down<'a>(lids: impl Iterator<Item = &'a mut u32>, pos: u32) {
    for l in lids {
        *l -= u32::from(*l > pos);
    }
}

/// Builds both layouts with one sort per coordinate — what
/// `(ColumnIndex::build(dirs), RowIndex::build(dirs))` returns.
pub fn build_both(dirs: &VectorStore) -> (ColumnIndex, RowIndex) {
    let mut col = ColumnIndex::with_dim(dirs.dim());
    let mut row = RowIndex { entries: Vec::with_capacity(dirs.dim()) };
    sorted_lists(dirs, |list| {
        col.push_list(list);
        row.entries.push(list.to_vec());
    });
    (col, row)
}

/// The shared sort: hands `emit` each coordinate's `(value, lid)` list in
/// coordinate order, sorted by descending value with ties on ascending
/// local id (see the module docs for the integer key).
///
/// # Panics
/// On a NaN coordinate.
fn sorted_lists(dirs: &VectorStore, mut emit: impl FnMut(&[(f64, u32)])) {
    let n = dirs.len();
    let mut column = Vec::with_capacity(n);
    let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
    let mut list = Vec::with_capacity(n);
    for f in 0..dirs.dim() {
        column.clear();
        column.extend(dirs.iter().map(|d| d[f]));
        keyed.clear();
        keyed.extend(column.iter().zip(0u32..).map(|(&v, lid)| (descending_key(v), lid)));
        keyed.sort_unstable();
        list.clear();
        list.extend(keyed.iter().map(|&(_, lid)| (column[lid as usize], lid)));
        emit(&list);
    }
}

/// Integer sort key of a coordinate value: ascending keys are descending
/// values, and ±0.0 share one key.
fn descending_key(v: f64) -> u64 {
    assert!(!v.is_nan(), "finite directions");
    let bits = (v + 0.0).to_bits();
    // Negative values flip every bit, the rest set the sign bit: ascending
    // integers in the order of the values.
    let ascending = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    !ascending
}

/// Half-open range of a **descending** array with values in `[lo, hi]`.
#[inline]
fn range_desc(vals: &[f64], lo: f64, hi: f64) -> (usize, usize) {
    let start = vals.partition_point(|&v| v > hi);
    let end = vals.partition_point(|&v| v >= lo);
    (start, end.max(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_bucket() -> VectorStore {
        // The normalized vectors of Fig. 4a.
        VectorStore::from_rows(&[
            vec![0.58, 0.50, 0.40, 0.50],
            vec![0.98, 0.00, 0.00, 0.20],
            vec![0.53, 0.00, 0.00, 0.85],
            vec![0.35, 0.93, 0.00, 0.10],
            vec![0.58, 0.50, 0.40, 0.50],
            vec![0.30, -0.40, 0.81, -0.30],
        ])
        .unwrap()
    }

    #[test]
    fn lists_are_sorted_descending_with_correct_ids() {
        let idx = ColumnIndex::build(&fig4_bucket());
        // Fig. 4c: I1 order is lids 2, 1, 5, 3, 4, 6 → zero-based 1, 0, 4, 2, 3, 5.
        assert_eq!(idx.lids(0, (0, 6)), &[1, 0, 4, 2, 3, 5]);
        // I4 order: 3, 1, 5, 2, 4, 6 → 2, 0, 4, 1, 3, 5.
        assert_eq!(idx.lids(3, (0, 6)), &[2, 0, 4, 1, 3, 5]);
        for f in 0..4 {
            let all = idx.scan_range(f, -1.0, 1.0);
            assert_eq!(all, (0, 6));
        }
    }

    #[test]
    fn scan_range_matches_fig4_focus_coordinates() {
        let idx = ColumnIndex::build(&fig4_bucket());
        // Fig. 4d: feasible region on coordinate 1 is [0.32, 0.94] →
        // scan range covers lids 1, 5, 3, 4 (zero-based 0, 4, 2, 3).
        let r1 = idx.scan_range(0, 0.32, 0.94);
        assert_eq!(idx.lids(0, r1), &[0, 4, 2, 3]);
        // Coordinate 4 region [0.09, 0.83] → lids 1, 5, 2, 4 (0, 4, 1, 3).
        let r4 = idx.scan_range(3, 0.09, 0.83);
        assert_eq!(idx.lids(3, r4), &[0, 4, 1, 3]);
    }

    #[test]
    fn row_index_agrees_with_column_index() {
        let store = fig4_bucket();
        let col = ColumnIndex::build(&store);
        let row = RowIndex::build(&store);
        for f in 0..store.dim() {
            for (lo, hi) in [(-1.0, 1.0), (0.0, 0.5), (0.4, 0.4), (0.9, 0.2)] {
                let rc = col.scan_range(f, lo, hi);
                let rr = row.scan_range(f, lo, hi);
                assert_eq!(rc, rr, "f={f} range=({lo},{hi})");
                let ids_c: Vec<u32> = col.lids(f, rc).to_vec();
                let ids_r: Vec<u32> = row.entries(f, rr).iter().map(|e| e.1).collect();
                assert_eq!(ids_c, ids_r);
                // row entries carry the right values
                for &(v, lid) in row.entries(f, rr) {
                    assert!((v - store.vector(lid as usize)[f]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn scan_range_boundaries_are_inclusive() {
        let store = VectorStore::from_rows(&[vec![0.5], vec![0.3], vec![0.1]]).unwrap();
        let idx = ColumnIndex::build(&store);
        assert_eq!(idx.scan_range(0, 0.3, 0.5), (0, 2));
        assert_eq!(idx.scan_range(0, 0.3, 0.3), (1, 2));
        assert_eq!(idx.scan_range(0, 0.31, 0.49), (1, 1)); // empty
                                                           // inverted interval → empty, never panics
        assert_eq!(idx.scan_range(0, 0.5, 0.1).0, idx.scan_range(0, 0.5, 0.1).1);
    }

    #[test]
    fn empty_store_builds_empty_lists() {
        let store = VectorStore::empty(3).unwrap();
        let col = ColumnIndex::build(&store);
        assert_eq!(col.dim(), 3);
        assert_eq!(col.list_len(), 0);
        assert_eq!(col.scan_range(0, -1.0, 1.0), (0, 0));
        let row = RowIndex::build(&store);
        assert_eq!(row.scan_range(2, -1.0, 1.0), (0, 0));
    }

    #[test]
    fn ties_are_ordered_by_id() {
        let store = VectorStore::from_rows(&[vec![0.5], vec![0.5], vec![0.5]]).unwrap();
        let idx = ColumnIndex::build(&store);
        assert_eq!(idx.lids(0, (0, 3)), &[0, 1, 2]);
    }

    /// The comparator sort the integer keys replaced, kept as the
    /// reference: per coordinate, ids by descending value (`partial_cmp`,
    /// so ±0.0 tie), ties by ascending id, plus the aligned values.
    fn reference_lists(dirs: &VectorStore) -> (Vec<Vec<u32>>, Vec<Vec<f64>>) {
        let mut order: Vec<u32> = (0..dirs.len() as u32).collect();
        let (mut orders, mut vals) = (Vec::new(), Vec::new());
        for f in 0..dirs.dim() {
            order.sort_by(|&a, &b| {
                let va = dirs.vector(a as usize)[f];
                let vb = dirs.vector(b as usize)[f];
                vb.partial_cmp(&va).expect("finite directions").then(a.cmp(&b))
            });
            orders.push(order.clone());
            vals.push(order.iter().map(|&i| dirs.vector(i as usize)[f]).collect());
        }
        (orders, vals)
    }

    /// Asserts both layouts hold exactly the reference lists, value bits
    /// included (so −0.0 stays −0.0).
    fn assert_matches_reference(col: &ColumnIndex, row: &RowIndex, dirs: &VectorStore, ctx: &str) {
        let (orders, vals) = reference_lists(dirs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((col.dim(), row.dim()), (dirs.dim(), dirs.dim()), "{ctx}");
        for f in 0..dirs.dim() {
            let all = (0, dirs.len());
            assert_eq!(col.lids(f, all), &orders[f][..], "{ctx}: COORD ids, f={f}");
            assert_eq!(bits(&col.vals[f]), bits(&vals[f]), "{ctx}: COORD values, f={f}");
            let (row_vals, row_lids): (Vec<f64>, Vec<u32>) =
                row.entries(f, all).iter().copied().unzip();
            assert_eq!(row_lids, orders[f], "{ctx}: INCR ids, f={f}");
            assert_eq!(bits(&row_vals), bits(&vals[f]), "{ctx}: INCR values, f={f}");
        }
    }

    #[test]
    fn integer_key_sort_equals_the_comparator_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let pool = [0.0, -0.0, tiny, -tiny, 5e-324, -5e-324, f64::MIN_POSITIVE, 0.5, -0.5, 1.0];
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60 {
            let dim = [1, 2, 3, 7, 50][case % 5];
            let n = [1, 2, 5, 40, 300][(case / 5) % 5];
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            for _ in 0..n {
                if !rows.is_empty() && rng.random_range(0..4) == 0 {
                    // A duplicate of an earlier row: ties on every list.
                    let copy = rows[rng.random_range(0..rows.len())].clone();
                    rows.push(copy);
                    continue;
                }
                let row = (0..dim)
                    .map(|_| match rng.random_range(0..3) {
                        0 => pool[rng.random_range(0..pool.len())],
                        _ => rng.random_range(-1.0..1.0),
                    })
                    .collect();
                rows.push(row);
            }
            let dirs = VectorStore::from_rows(&rows).unwrap();
            let ctx = format!("case {case}: {n} rows, dim {dim}");
            let (col, row) = (ColumnIndex::build(&dirs), RowIndex::build(&dirs));
            assert_matches_reference(&col, &row, &dirs, &ctx);
            // One sort for both layouts gives what the two builds give.
            let (both_col, both_row) = build_both(&dirs);
            assert_eq!(format!("{both_col:?}"), format!("{col:?}"), "{ctx}");
            assert_eq!(format!("{both_row:?}"), format!("{row:?}"), "{ctx}");
        }
    }

    #[test]
    fn keys_order_every_value_class() {
        let tiny = f64::MIN_POSITIVE / 4.0;
        let ascending = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -tiny,
            -5e-324,
            0.0,
            5e-324,
            tiny,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(descending_key(w[0]) > descending_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(descending_key(-0.0), descending_key(0.0));
    }

    #[test]
    #[should_panic(expected = "finite directions")]
    fn nan_coordinates_are_refused() {
        descending_key(f64::NAN);
    }

    #[test]
    fn spliced_edits_equal_a_fresh_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Values from a tiny pool, so ties (and ±0.0) fill every list.
        let pool = [0.5, -0.5, 0.0, -0.0, 0.25, 1.0];
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = VectorStore::empty(3).unwrap();
        let mut col = ColumnIndex::build(&store);
        let mut row = RowIndex::build(&store);
        for step in 0..300 {
            if store.len() < 2 || rng.random_range(0..3) > 0 {
                // Covers the front (0) and the back (len) of the bucket.
                let pos = rng.random_range(0..=store.len());
                let dir: Vec<f64> = (0..3).map(|_| pool[rng.random_range(0..pool.len())]).collect();
                store.insert_row(pos, &dir).unwrap();
                col.insert(pos, &dir);
                row.insert(pos, &dir);
            } else {
                let pos = rng.random_range(0..store.len());
                store.remove_row(pos);
                col.remove(pos);
                row.remove(pos);
            }
            // Debug output tells -0.0 from 0.0, so this is bit equality.
            let (fresh_col, fresh_row) = (ColumnIndex::build(&store), RowIndex::build(&store));
            assert_eq!(format!("{col:?}"), format!("{fresh_col:?}"), "step {step}");
            assert_eq!(format!("{row:?}"), format!("{fresh_row:?}"), "step {step}");
        }
    }
}
