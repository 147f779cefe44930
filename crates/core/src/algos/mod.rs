//! Bucket retrieval algorithms (Sec. 4 of the paper).
//!
//! Every algorithm answers the same per-(query, bucket) question: which
//! vectors of the bucket might satisfy `qᵀp ≥ θ`? The answer goes into a
//! [`Sink`] either as *unverified* local ids (LEMP's verification step will
//! compute their exact inner products, Alg. 1 line 16) or as *verified*
//! `(lid, qᵀp)` pairs when the method computes exact inner products
//! internally (TA and the cover tree do).
//!
//! | module | paper name | pruning signal |
//! |---|---|---|
//! | [`length`] | LENGTH (Sec. 4.1) | vector length only |
//! | [`coord`] | COORD (Sec. 4.2) | per-coordinate feasible regions |
//! | [`incr`] | INCR (Sec. 4.3) | feasible regions + partial inner products |
//! | [`ta_bucket`] | LEMP-TA (Sec. 5) | Fagin's TA inside the bucket |
//! | [`tree_bucket`] | LEMP-Tree (Sec. 5) | cover tree per bucket |
//! | [`l2ap_bucket`] | LEMP-L2AP (Sec. 5) | prefix-L2 inverted index |
//! | [`blsh_bucket`] | LEMP-BLSH (Sec. 5) | LSH signature matches |

pub mod blsh_bucket;
pub mod coord;
pub mod incr;
pub mod l2ap_bucket;
pub mod length;
pub mod ta_bucket;
pub mod tree_bucket;

use lemp_apss::L2apScratch;
use lemp_baselines::ta::SeenSet;

use crate::scratch::{CpArray, ExtCpArray};

/// Everything a bucket method needs to know about the current query.
#[derive(Debug, Clone, Copy)]
pub struct QueryCtx<'a> {
    /// Unit direction `q̄`.
    pub dir: &'a [f64],
    /// `‖q‖` (fixed to 1 in Row-Top-k runs, Sec. 4.5).
    pub len: f64,
    /// The global threshold `θ` (Above-θ) or the running `θ′` (Row-Top-k).
    pub theta: f64,
    /// Precomputed `θ/‖q‖` (LENGTH's cut-off and INCR's fast test).
    pub theta_over_len: f64,
    /// The local threshold `θ_b(q)` for the bucket being processed.
    pub local_threshold: f64,
    /// The query in its original scale `‖q‖·q̄` (TA/cover-tree adapters work
    /// on raw inner products).
    pub scaled: &'a [f64],
}

/// Candidate output of one bucket-method invocation.
#[derive(Debug, Default, Clone)]
pub struct Sink {
    /// Local ids whose inner product still must be computed.
    pub unverified: Vec<u32>,
    /// `(lid, qᵀp)` pairs with exact inner products already computed.
    pub verified: Vec<(u32, f64)>,
}

impl Sink {
    /// Empties both lists (buffers are reused across calls).
    pub fn clear(&mut self) {
        self.unverified.clear();
        self.verified.clear();
    }
}

/// Reusable per-worker scratch shared by all methods.
#[derive(Debug)]
pub struct MethodScratch {
    /// COORD's candidate-pruning array.
    pub cp: CpArray,
    /// INCR's extended CP array.
    pub ext: ExtCpArray,
    /// TA adapter's duplicate suppressor.
    pub seen: SeenSet,
    /// L2AP adapter's accumulator.
    pub l2ap: L2apScratch,
    /// Focus coordinates of the current query (largest `|q̄_f|` first).
    pub focus: Vec<usize>,
    /// Scan ranges aligned with `focus`.
    pub ranges: Vec<(usize, usize)>,
    /// COORD's visiting order over `focus`: indices by increasing range
    /// length.
    pub order: Vec<usize>,
    /// Result buffer for adapters that verify internally.
    pub row: Vec<(u32, f64)>,
    /// The current query's lookup table for the quantized scan (`m·k`
    /// entries), reused across the query's bucket visits.
    pub lut: crate::quant::QueryLut,
    /// Approximate score buffer for the quantized scan (`n` entries).
    pub qscores: Vec<f64>,
}

impl MethodScratch {
    /// Scratch for buckets of up to `n` vectors.
    pub fn new(n: usize) -> Self {
        Self {
            cp: CpArray::new(n),
            ext: ExtCpArray::new(n),
            seen: SeenSet::new(n),
            l2ap: L2apScratch::new(n),
            focus: Vec::new(),
            ranges: Vec::new(),
            order: Vec::new(),
            row: Vec::new(),
            lut: Default::default(),
            qscores: Vec::new(),
        }
    }

    /// Grows all arrays to bucket size `n`.
    pub fn ensure(&mut self, n: usize) {
        self.cp.resize(n);
        self.ext.resize(n);
        self.seen.resize(n);
        self.l2ap.resize(n);
    }
}

/// Picks the `phi` coordinates of `q̄` with the largest absolute values
/// (Sec. 4.2: "COORD then uses the φ coordinates of q̄ with largest absolute
/// value as focus coordinates"), skipping exact zeros — a zero coordinate's
/// feasible region is the full range and prunes nothing.
pub fn select_focus(dir: &[f64], phi: usize, focus: &mut Vec<usize>) {
    focus.clear();
    let phi = phi.min(dir.len());
    for _ in 0..phi {
        let mut best = None;
        let mut best_abs = 0.0;
        for (f, &v) in dir.iter().enumerate() {
            let a = v.abs();
            if a > best_abs && !focus.contains(&f) {
                best_abs = a;
                best = Some(f);
            }
        }
        match best {
            Some(f) => focus.push(f),
            None => break, // remaining coordinates are all zero
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focus_picks_largest_absolute_coordinates() {
        let mut focus = Vec::new();
        select_focus(&[0.1, -0.9, 0.5, 0.0], 2, &mut focus);
        assert_eq!(focus, vec![1, 2]);
        select_focus(&[0.1, -0.9, 0.5, 0.0], 10, &mut focus);
        assert_eq!(focus, vec![1, 2, 0]); // zero coordinate skipped
    }

    #[test]
    fn focus_of_zero_vector_is_empty() {
        let mut focus = Vec::new();
        select_focus(&[0.0, 0.0], 3, &mut focus);
        assert!(focus.is_empty());
    }

    #[test]
    fn fig4_focus_coordinates() {
        // q̄ = (0.70, 0.3, 0.4, 0.51), φ = 2 → F = {coordinate 1, coordinate 4}
        // (one-based in the paper; zero-based 0 and 3 here).
        let mut focus = Vec::new();
        select_focus(&[0.70, 0.3, 0.4, 0.51], 2, &mut focus);
        assert_eq!(focus, vec![0, 3]);
    }

    #[test]
    fn sink_clear_resets_both_lists() {
        let mut s = Sink::default();
        s.unverified.push(1);
        s.verified.push((2, 0.5));
        s.clear();
        assert!(s.unverified.is_empty());
        assert!(s.verified.is_empty());
    }
}
