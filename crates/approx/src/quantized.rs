//! Quantized scoring **without verification** — the recall harness for the
//! engine's QUANT buckets run in approximate mode.
//!
//! The exact engine uses [`lemp_core::QuantizedBucket`] only to *prune*:
//! every surviving candidate is re-verified against the full-precision
//! vectors, so answers stay bit-identical (see `lemp_core::quant`). This
//! module asks the complementary question the paper's related work asks of
//! every sketch: **how good are the quantized scores on their own?** It
//! ranks probes by `‖q‖ · len_i · (q̄ · recon_i)` — the LUT scan's output,
//! never touching the full-precision directions at query time — and the
//! tests grade the resulting Row-Top-k lists with [`crate::recall`].
//!
//! Unlike every other index in this crate, reported scores here are
//! *approximate* (off by at most `‖q‖ · len_i · eps` per probe, where `eps`
//! is the trained distortion bound): this is the one deliberately
//! unverified path, kept out of the exact engine and quarantined here for
//! measurement. The `repro-quantized` binary in `lemp-bench` uses it to
//! gate recall ≥ 0.99 at 8 bits on the Table-1 workload.

use lemp_core::QuantizedBucket;
use lemp_linalg::{kernels, ScoredItem, TopK, VectorStore};

use crate::error::ApproxError;

/// Configuration of the no-reverify quantized scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedScorerConfig {
    /// Code width per subspace in `1..=16` (see
    /// [`lemp_core::quant::MAX_QUANT_BITS`]).
    pub bits: u8,
    /// Seed for the deterministic codebook training.
    pub seed: u64,
}

impl Default for QuantizedScorerConfig {
    fn default() -> Self {
        Self { bits: 8, seed: 0x5e_ed }
    }
}

/// Approximate Row-Top-k over PQ codes alone: probes are length/direction
/// decomposed, directions are encoded once at build, and queries are
/// answered purely by LUT scans — no exact re-scoring of candidates.
#[derive(Debug, Clone)]
pub struct QuantizedScorer {
    quant: QuantizedBucket,
    lengths: Vec<f64>,
    dim: usize,
}

impl QuantizedScorer {
    /// Trains subspace codebooks over the probe set and encodes every probe.
    ///
    /// # Errors
    /// [`ApproxError::InvalidParam`] if `bits` is 0 or exceeds 16;
    /// [`ApproxError::EmptyInput`] if `probes` is empty.
    pub fn build(probes: &VectorStore, cfg: &QuantizedScorerConfig) -> Result<Self, ApproxError> {
        if cfg.bits == 0 || cfg.bits > lemp_core::quant::MAX_QUANT_BITS {
            return Err(ApproxError::InvalidParam {
                name: "bits",
                requirement: "must lie in 1..=16",
            });
        }
        if probes.is_empty() {
            return Err(ApproxError::EmptyInput { context: "quantized scorer" });
        }
        let (lengths, dirs) = probes.decompose();
        let quant = QuantizedBucket::train(&dirs, cfg.bits, cfg.seed)
            .expect("non-empty store and validated bits always train");
        Ok(Self { quant, lengths, dim: probes.dim() })
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.quant.bits()
    }

    /// The trained distortion bound `max_i ‖d̄_i − recon_i‖`: every reported
    /// score is within `‖q‖ · len_i · eps` of the true inner product.
    pub fn eps(&self) -> f64 {
        self.quant.eps()
    }

    /// Number of encoded probes.
    pub fn len(&self) -> usize {
        self.quant.len()
    }

    /// `true` if no probes are encoded (unreachable via [`Self::build`]).
    pub fn is_empty(&self) -> bool {
        self.quant.is_empty()
    }

    /// Resident bytes of the quantized representation (codebook, codes,
    /// bounds and lengths) — what a pure-quantized deployment would hold in
    /// memory.
    pub fn resident_bytes(&self) -> usize {
        self.quant.codebook().resident_bytes()
            + self.quant.resident_bytes()
            + self.lengths.len() * 8
    }

    /// Approximate top-`k` probes by inner product with `q`, ranked and
    /// scored entirely from the quantized representation. Results are
    /// sorted by descending approximate score, ties by ascending probe id.
    ///
    /// # Panics
    /// If `q.len()` differs from the probe dimensionality.
    pub fn query_top_k(&self, q: &[f64], k: usize) -> Vec<ScoredItem> {
        let mut lut = Vec::new();
        let mut scores = Vec::new();
        self.query_top_k_with(q, k, &mut lut, &mut scores)
    }

    /// [`Self::query_top_k`] with caller-owned scratch buffers, for batched
    /// use without per-query allocation.
    pub fn query_top_k_with(
        &self,
        q: &[f64],
        k: usize,
        lut: &mut Vec<f64>,
        scores: &mut Vec<f64>,
    ) -> Vec<ScoredItem> {
        assert_eq!(
            q.len(),
            self.dim,
            "dimensionality mismatch: query {} vs probes {}",
            q.len(),
            self.dim
        );
        if k == 0 {
            return Vec::new();
        }
        let qlen = kernels::norm(q);
        let mut dir = q.to_vec();
        kernels::normalize(&mut dir);
        self.quant.fill_lut(&dir, lut);
        self.quant.scores(lut, scores);
        let mut top = TopK::new(k);
        for (i, (&approx, &len)) in scores.iter().zip(&self.lengths).enumerate() {
            top.push(i, qlen * len * approx);
        }
        top.drain_sorted()
    }

    /// [`Self::query_top_k`] for every row of `queries`, sharing scratch.
    ///
    /// # Panics
    /// If the dimensionalities differ.
    pub fn row_top_k(&self, queries: &VectorStore, k: usize) -> Vec<Vec<ScoredItem>> {
        let mut lut = Vec::new();
        let mut scores = Vec::new();
        queries.iter().map(|q| self.query_top_k_with(q, k, &mut lut, &mut scores)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recall::topk_recall;
    use lemp_data::synthetic::GeneratorConfig;

    fn fixture(n: usize, seed: u64) -> VectorStore {
        GeneratorConfig::gaussian(n, 16, 0.8).generate(seed)
    }

    fn exact_top_k(q: &[f64], probes: &VectorStore, k: usize) -> Vec<ScoredItem> {
        let mut top = TopK::new(k);
        for j in 0..probes.len() {
            top.push(j, kernels::dot(q, probes.vector(j)));
        }
        top.drain_sorted()
    }

    #[test]
    fn build_validates_config() {
        let probes = fixture(20, 1);
        for bits in [0u8, 17] {
            let err = QuantizedScorer::build(&probes, &QuantizedScorerConfig { bits, seed: 1 })
                .unwrap_err();
            assert!(matches!(err, ApproxError::InvalidParam { name: "bits", .. }), "{err}");
        }
        let empty = VectorStore::empty(16).unwrap();
        let err = QuantizedScorer::build(&empty, &QuantizedScorerConfig::default()).unwrap_err();
        assert!(matches!(err, ApproxError::EmptyInput { .. }), "{err}");
    }

    #[test]
    fn scores_within_distortion_bound() {
        let probes = fixture(300, 2);
        let queries = fixture(20, 3);
        let scorer = QuantizedScorer::build(&probes, &QuantizedScorerConfig::default()).unwrap();
        for q in queries.iter() {
            let qlen = kernels::norm(q);
            for item in scorer.query_top_k(q, 5) {
                let truth = kernels::dot(q, probes.vector(item.id));
                let slack = qlen * scorer.eps() * 1.0001 + 1e-12;
                assert!(
                    (item.score - truth).abs() <= slack,
                    "probe {}: approx {} vs exact {truth}, slack {slack}",
                    item.id,
                    item.score
                );
            }
        }
    }

    #[test]
    fn recall_high_at_eight_bits_and_monotone_in_bits() {
        let probes = fixture(500, 4);
        let queries = fixture(50, 5);
        let k = 10;
        let truth: Vec<Vec<ScoredItem>> =
            queries.iter().map(|q| exact_top_k(q, &probes, k)).collect();
        let mut recalls = Vec::new();
        for bits in [2u8, 8, 16] {
            let scorer =
                QuantizedScorer::build(&probes, &QuantizedScorerConfig { bits, seed: 7 }).unwrap();
            let got = scorer.row_top_k(&queries, k);
            recalls.push(topk_recall(&truth, &got, 1e-12));
        }
        assert!(
            recalls[0] <= recalls[1] + 0.02 && recalls[1] <= recalls[2] + 0.02,
            "recall not monotone in bits: {recalls:?}"
        );
        assert!(recalls[1] >= 0.85, "8-bit no-reverify recall too low: {}", recalls[1]);
        // At 16 bits k = n: every direction is its own centroid, the
        // reconstruction is exact, and the "approximate" ranking is exact.
        assert_eq!(recalls[2], 1.0, "k = n must reconstruct exactly");
    }

    #[test]
    fn deterministic_given_seed() {
        let probes = fixture(80, 6);
        let q = fixture(1, 7);
        let cfg = QuantizedScorerConfig { bits: 6, seed: 42 };
        let a = QuantizedScorer::build(&probes, &cfg).unwrap();
        let b = QuantizedScorer::build(&probes, &cfg).unwrap();
        assert_eq!(a.query_top_k(q.vector(0), 5), b.query_top_k(q.vector(0), 5));
    }

    #[test]
    fn zero_k_and_accessors() {
        let probes = fixture(40, 8);
        let scorer = QuantizedScorer::build(&probes, &QuantizedScorerConfig::default()).unwrap();
        assert!(scorer.query_top_k(probes.vector(0), 0).is_empty());
        assert_eq!(scorer.bits(), 8);
        assert_eq!(scorer.len(), 40);
        assert!(!scorer.is_empty());
        assert!(scorer.eps() >= 0.0);
    }

    #[test]
    fn residency_undercuts_full_precision() {
        // Large enough that the fixed codebook cost amortizes: per-probe
        // storage is 4 code bytes + one length vs 128 direction bytes.
        let probes = fixture(2000, 9);
        let scorer = QuantizedScorer::build(&probes, &QuantizedScorerConfig::default()).unwrap();
        let full = probes.len() * probes.dim() * 8;
        assert!(
            scorer.resident_bytes() * 2 < full,
            "quantized {} vs full {full}",
            scorer.resident_bytes()
        );
    }
}
