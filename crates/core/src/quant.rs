//! Quantized probe buckets: PQ-style subspace codebooks with small-LUT
//! scoring (the ROADMAP's "High-Rate Nested-Lattice Quantized Matrix
//! Multiplication with Small Lookup Tables" direction).
//!
//! Each bucket's unit directions are cut into `m` subspaces of
//! [`SUB_DIM`] coordinates; per subspace, a codebook of `k ≤ 2^bits`
//! centroids is trained with deterministic Lloyd iterations and every
//! probe is stored as `m` packed code indices. At query time a
//! query-specific lookup table (`lut[s·k + c] = q̄_s · centroid_{s,c}`) is
//! built once per bucket visit, after which every probe's approximate
//! cosine is `m` table lookups — the gather-accumulate kernels in
//! `lemp-linalg` ([`lemp_linalg::kernels::lut_scan_u8`]) run this scan in
//! scalar or AVX2 form with bit-identical results.
//!
//! # Exactness contract
//!
//! The representation keeps a **per-probe distortion bound**
//! `errs[i] = ‖d̄_i − recon_i‖` beside the codes. With a unit query
//! direction `q̄`, Cauchy–Schwarz gives `|q̄·d̄_i − q̄·recon_i| ≤ errs[i]`, so
//! `approx_i + errs[i]` upper-bounds the true cosine. The bucket scan
//! (`run`) folds this bound into the per-probe θ/k-floor test: a probe is a
//! candidate iff `len_i·(approx_i + errs[i])` clears the threshold, and
//! every candidate is re-verified against the full-precision vectors by the
//! shared verification step — Above-θ and Row-Top-k answers stay
//! **bit-identical** to the exact engine. The bucket maximum
//! `eps = max_i errs[i]` only ends the scan early.
//!
//! The bound is per probe because dynamic edits encode new directions
//! against codebooks trained before they arrived (no retraining; see
//! [`crate::dynamic`]): such a probe may sit far from every
//! centroid, and its large error loosens only its own test, not the whole
//! bucket's. `errs` is derived state — [`QuantizedBucket::from_parts`]
//! recomputes it from the directions and codes, and images never store
//! it. The *approximate* mode (scoring by `len_i·approx_i` without
//! verification, used by the `crates/approx` recall harness) trades the
//! exactness guarantee for speed.

use lemp_linalg::{kernels, VectorStore};

use crate::algos::{QueryCtx, Sink};
use crate::bucket::Bucket;

/// Coordinates per quantization subspace. Four doubles collapse into one
/// code byte at 8 bits — the 4–8× residency reduction the ROADMAP targets —
/// while keeping per-subspace codebooks expressive at small `k`.
pub const SUB_DIM: usize = 4;

/// Largest accepted code width; wider codes would not fit `u16` storage.
pub const MAX_QUANT_BITS: u8 = 16;

/// Lloyd iterations per subspace codebook (deterministic, seeded init).
const KMEANS_ITERS: usize = 6;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packed per-probe code indices, subspace-major (`codes[s·n + i]` is probe
/// `i`'s centroid index in subspace `s`). Width follows the code bits: one
/// byte per entry up to 8 bits, two bytes for 9–16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantCodes {
    /// Codebooks of up to 256 centroids.
    U8(Vec<u8>),
    /// Wider codebooks (9–16 bits).
    U16(Vec<u16>),
}

impl QuantCodes {
    fn len(&self) -> usize {
        match self {
            QuantCodes::U8(v) => v.len(),
            QuantCodes::U16(v) => v.len(),
        }
    }

    fn get(&self, idx: usize) -> usize {
        match self {
            QuantCodes::U8(v) => v[idx] as usize,
            QuantCodes::U16(v) => v[idx] as usize,
        }
    }

    /// Bytes of packed code storage.
    pub fn bytes(&self) -> usize {
        match self {
            QuantCodes::U8(v) => v.len(),
            QuantCodes::U16(v) => v.len() * 2,
        }
    }

    /// Splices a probe with per-subspace `code` in at position `pos` of
    /// each of the subspace rows of `n` probes. Rows go back to front, so
    /// every row still starts at its pre-edit offset when it is edited.
    fn insert(&mut self, n: usize, pos: usize, code: &[u16]) {
        for (s, &c) in code.iter().enumerate().rev() {
            match self {
                QuantCodes::U8(v) => v.insert(s * n + pos, c as u8),
                QuantCodes::U16(v) => v.insert(s * n + pos, c),
            }
        }
    }

    /// Cuts probe `pos` out of each of the subspace rows of `n` probes
    /// (back to front, as [`Self::insert`]).
    fn remove(&mut self, n: usize, pos: usize) {
        for s in (0..self.len() / n).rev() {
            match self {
                QuantCodes::U8(v) => drop(v.remove(s * n + pos)),
                QuantCodes::U16(v) => drop(v.remove(s * n + pos)),
            }
        }
    }
}

/// The quantized representation of one bucket: per-subspace codebooks plus
/// packed per-probe codes and per-probe distortion bounds (see the module
/// docs for the exactness contract).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBucket {
    bits: u8,
    sub_dim: usize,
    m: usize,
    k: usize,
    n: usize,
    dim: usize,
    /// `m · k` centroids of `sub_dim` doubles each, subspace-major; the
    /// last subspace's trailing coordinates are zero-padded.
    codebooks: Vec<f64>,
    codes: QuantCodes,
    /// `errs[i] = ‖d̄_i − recon_i‖`, in probe order.
    errs: Vec<f64>,
    /// `max_i errs[i]` (0 when empty).
    eps: f64,
}

impl QuantizedBucket {
    /// Trains subspace codebooks over `dirs` (one unit direction per row)
    /// at the given code width and encodes every row. Deterministic: the
    /// same inputs and seed always produce the same codebooks and codes.
    /// Returns `None` for an empty store, zero dimensionality, or a code
    /// width outside `1..=`[`MAX_QUANT_BITS`].
    pub fn train(dirs: &VectorStore, bits: u8, seed: u64) -> Option<Self> {
        let (n, dim) = (dirs.len(), dirs.dim());
        if n == 0 || dim == 0 || bits == 0 || bits > MAX_QUANT_BITS {
            return None;
        }
        let sub_dim = SUB_DIM.min(dim);
        let m = dim.div_ceil(sub_dim);
        let k = if bits as usize >= usize::BITS as usize { n } else { n.min(1usize << bits) };
        let mut codebooks = vec![0.0; m * k * sub_dim];
        let mut assign = vec![0usize; n];
        let mut err_sq = vec![0.0f64; n];
        let mut total_sq = vec![0.0f64; n];
        let mut rng = seed | 1;
        let mut codes_wide = vec![0u16; m * n];
        for s in 0..m {
            let lo = s * sub_dim;
            let w = (dim - lo).min(sub_dim);
            let cb = &mut codebooks[s * k * sub_dim..(s + 1) * k * sub_dim];
            // Seeded rotation over evenly spaced rows: deterministic and
            // spread across the length-sorted bucket.
            let offset = (splitmix(&mut rng) as usize) % n;
            for c in 0..k {
                let row = (offset + c * n / k) % n;
                cb[c * sub_dim..c * sub_dim + w].copy_from_slice(&dirs.vector(row)[lo..lo + w]);
            }
            let mut sums = vec![0.0f64; k * sub_dim];
            let mut counts = vec![0usize; k];
            for _ in 0..KMEANS_ITERS {
                sums.iter_mut().for_each(|x| *x = 0.0);
                counts.iter_mut().for_each(|x| *x = 0);
                for (i, a) in assign.iter_mut().enumerate() {
                    let point = &dirs.vector(i)[lo..lo + w];
                    let (best, best_d) = nearest(point, cb, k, sub_dim, w);
                    *a = best;
                    err_sq[i] = best_d;
                    counts[best] += 1;
                    for (dst, &src) in sums[best * sub_dim..].iter_mut().zip(point) {
                        *dst += src;
                    }
                }
                for c in 0..k {
                    if counts[c] > 0 {
                        let inv = 1.0 / counts[c] as f64;
                        for d in 0..w {
                            cb[c * sub_dim + d] = sums[c * sub_dim + d] * inv;
                        }
                    } else {
                        // Reseed an empty cluster to the worst-fit point —
                        // deterministic (ties break on the lowest index).
                        let far = err_sq
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map_or(0, |(i, _)| i);
                        cb[c * sub_dim..c * sub_dim + w]
                            .copy_from_slice(&dirs.vector(far)[lo..lo + w]);
                    }
                }
            }
            // Final assignment after the last centroid update. `total_sq`
            // accumulates across subspaces (distinct from the per-subspace
            // Lloyd scratch `err_sq`, which each subspace overwrites).
            for (i, code) in codes_wide[s * n..(s + 1) * n].iter_mut().enumerate() {
                let point = &dirs.vector(i)[lo..lo + w];
                let (best, best_d) = nearest(point, cb, k, sub_dim, w);
                *code = best as u16;
                total_sq[i] += best_d;
            }
        }
        let errs: Vec<f64> = total_sq.iter().map(|e| e.sqrt()).collect();
        let codes = if bits <= 8 {
            QuantCodes::U8(codes_wide.iter().map(|&c| c as u8).collect())
        } else {
            QuantCodes::U16(codes_wide)
        };
        Some(Self { bits, sub_dim, m, k, n, dim, codebooks, codes, eps: max_of(&errs), errs })
    }

    /// Reassembles a quantized bucket from persisted parts, validating
    /// every shape and code value against the bucket's full-precision
    /// directions. The per-probe distortion bounds are **recomputed** from
    /// `dirs` — images never carry them — so no stored value can silently
    /// break the exactness contract.
    pub fn from_parts(
        bits: u8,
        sub_dim: usize,
        k: usize,
        codebooks: Vec<f64>,
        codes: QuantCodes,
        dirs: &VectorStore,
    ) -> Result<Self, String> {
        let (n, dim) = (dirs.len(), dirs.dim());
        if bits == 0 || bits > MAX_QUANT_BITS {
            return Err(format!("quantized section: bits {bits} outside 1..=16"));
        }
        if sub_dim == 0 || sub_dim != SUB_DIM.min(dim) {
            return Err(format!("quantized section: sub_dim {sub_dim} mismatches dim {dim}"));
        }
        let m = dim.div_ceil(sub_dim);
        if k == 0 || (bits < usize::BITS as u8 && k > (1usize << bits)) || k > n {
            return Err(format!("quantized section: k {k} invalid for bits {bits}, n {n}"));
        }
        let want_cb = m
            .checked_mul(k)
            .and_then(|x| x.checked_mul(sub_dim))
            .ok_or("quantized section: codebook size overflows")?;
        if codebooks.len() != want_cb {
            return Err(format!(
                "quantized section: {} codebook values, expected {want_cb}",
                codebooks.len()
            ));
        }
        if codebooks.iter().any(|v| !v.is_finite()) {
            return Err("quantized section: non-finite codebook value".to_string());
        }
        let want_codes = m.checked_mul(n).ok_or("quantized section: code count overflows")?;
        if codes.len() != want_codes {
            return Err(format!("quantized section: {} codes, expected {want_codes}", codes.len()));
        }
        let wide = matches!(codes, QuantCodes::U16(_));
        if wide != (bits > 8) {
            return Err("quantized section: code width mismatches bits".to_string());
        }
        for idx in 0..codes.len() {
            if codes.get(idx) >= k {
                return Err(format!("quantized section: code {} ≥ k {k}", codes.get(idx)));
            }
        }
        let mut q =
            Self { bits, sub_dim, m, k, n, dim, codebooks, codes, errs: Vec::new(), eps: 0.0 };
        q.errs = (0..n).map(|i| q.recon_err(i, dirs.vector(i))).collect();
        q.eps = max_of(&q.errs);
        Ok(q)
    }

    /// `‖dir − recon_i‖` for the direction `dir` of probe `i`.
    fn recon_err(&self, i: usize, dir: &[f64]) -> f64 {
        let mut e = 0.0;
        for s in 0..self.m {
            let lo = s * self.sub_dim;
            let w = (self.dim - lo).min(self.sub_dim);
            let c = self.codes.get(s * self.n + i);
            let cb = &self.codebooks[(s * self.k + c) * self.sub_dim..];
            e += kernels::dist_sq(&dir[lo..lo + w], &cb[..w]);
        }
        e.sqrt()
    }

    /// Encodes a direction inserted at probe position `pos` against the
    /// trained codebooks — one nearest-centroid search per subspace, no
    /// training — and records its own distortion bound. Equals
    /// [`Self::from_parts`] over the edited directions and codes.
    ///
    /// # Panics
    /// If `pos > len()` or `dir` has the wrong dimensionality.
    pub(crate) fn insert(&mut self, pos: usize, dir: &[f64]) {
        assert!(pos <= self.n && dir.len() == self.dim, "insert out of shape");
        let mut code = Vec::with_capacity(self.m);
        let mut err_sq = 0.0;
        for s in 0..self.m {
            let lo = s * self.sub_dim;
            let w = (self.dim - lo).min(self.sub_dim);
            let cb = &self.codebooks[s * self.k * self.sub_dim..(s + 1) * self.k * self.sub_dim];
            let (best, best_d) = nearest(&dir[lo..lo + w], cb, self.k, self.sub_dim, w);
            code.push(best as u16);
            err_sq += best_d;
        }
        self.codes.insert(self.n, pos, &code);
        self.n += 1;
        let err = err_sq.sqrt();
        self.errs.insert(pos, err);
        self.eps = self.eps.max(err);
    }

    /// Cuts probe `pos` out of the codes and bounds.
    ///
    /// # Panics
    /// If `pos ≥ len()`, or if fewer probes than centroids would remain
    /// ([`Self::from_parts`] rejects that shape; retrain instead).
    pub(crate) fn remove(&mut self, pos: usize) {
        assert!(pos < self.n, "remove position {pos} out of bounds (len {})", self.n);
        assert!(self.k < self.n, "removal would leave fewer probes than the {} centroids", self.k);
        self.codes.remove(self.n, pos);
        self.n -= 1;
        self.errs.remove(pos);
        self.eps = max_of(&self.errs);
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Centroids per subspace codebook.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of subspaces.
    pub fn subspaces(&self) -> usize {
        self.m
    }

    /// Coordinates per subspace (the last subspace may cover fewer).
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// Encoded probe count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if no probes are encoded (never produced by [`Self::train`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bucket's worst distortion bound `max_i ‖d̄_i − recon_i‖`.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The per-probe distortion bounds `‖d̄_i − recon_i‖`, in probe order.
    pub(crate) fn errs(&self) -> &[f64] {
        &self.errs
    }

    /// The raw codebooks (`m · k` centroids of [`Self::sub_dim`] doubles,
    /// subspace-major) — persistence and inspection.
    pub fn codebooks(&self) -> &[f64] {
        &self.codebooks
    }

    /// The packed codes — persistence and inspection.
    pub fn codes(&self) -> &QuantCodes {
        &self.codes
    }

    /// Resident bytes of the quantized representation (codebooks, codes
    /// and the 8-byte per-probe bounds).
    pub fn resident_bytes(&self) -> usize {
        self.codebooks.len() * 8 + self.codes.bytes() + self.errs.len() * 8
    }

    /// Builds the query-specific lookup table:
    /// `lut[s·k + c] = dot(q̄[subspace s], centroid_{s,c})`.
    pub fn fill_lut(&self, dir: &[f64], lut: &mut Vec<f64>) {
        lut.clear();
        lut.reserve(self.m * self.k);
        for s in 0..self.m {
            let lo = s * self.sub_dim;
            let w = (self.dim - lo).min(self.sub_dim);
            let q_sub = &dir[lo..lo + w];
            let cbs = &self.codebooks[s * self.k * self.sub_dim..(s + 1) * self.k * self.sub_dim];
            if w == 4 && self.sub_dim == 4 {
                // The hot shape (full subspaces): an inlined 4-dot with the
                // same `(s0 + s1) + (s2 + s3)` reduction as `kernels::dot`,
                // so the table is bit-identical but skips `k` dispatched
                // calls per subspace — the LUT build is per bucket visit
                // and must not eat the scan's win.
                let (q0, q1, q2, q3) = (q_sub[0], q_sub[1], q_sub[2], q_sub[3]);
                for cb in cbs.chunks_exact(4) {
                    lut.push((q0 * cb[0] + q1 * cb[1]) + (q2 * cb[2] + q3 * cb[3]));
                }
            } else {
                for c in 0..self.k {
                    let cb = &cbs[c * self.sub_dim..];
                    lut.push(kernels::dot(q_sub, &cb[..w]));
                }
            }
        }
    }

    /// Approximate cosines of every probe against the query the LUT was
    /// built for — the tight gather-accumulate scan (scalar or AVX2,
    /// bit-identical).
    pub fn scores(&self, lut: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        match &self.codes {
            QuantCodes::U8(codes) => kernels::lut_scan_u8(codes, lut, self.n, self.m, self.k, out),
            QuantCodes::U16(codes) => {
                kernels::lut_scan_u16(codes, lut, self.n, self.m, self.k, out)
            }
        }
    }
}

fn max_of(errs: &[f64]) -> f64 {
    errs.iter().fold(0.0f64, |acc, &e| acc.max(e))
}

/// The centroid of `cb` nearest to `point` and its squared distance.
fn nearest(point: &[f64], cb: &[f64], k: usize, sub_dim: usize, w: usize) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    if w == 4 && sub_dim == 4 {
        // The hot shape, spelled out: the same `(s0 + s1) + (s2 + s3)`
        // sum as `kernels::dist_sq`, so distances (and the bounds
        // `from_parts` recomputes through the kernel) are bit-identical,
        // but the Lloyd loop's speed doesn't hinge on the compiler
        // inlining the dispatched kernel into it.
        let (p0, p1, p2, p3) = (point[0], point[1], point[2], point[3]);
        for (c, cent) in cb[..k * 4].chunks_exact(4).enumerate() {
            let (d0, d1, d2, d3) = (p0 - cent[0], p1 - cent[1], p2 - cent[2], p3 - cent[3]);
            let d = (d0 * d0 + d1 * d1) + (d2 * d2 + d3 * d3);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        return (best, best_d);
    }
    for c in 0..k {
        let d = kernels::dist_sq(point, &cb[c * sub_dim..c * sub_dim + w]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// The QUANT bucket scan: build the query's LUT, score every probe by
/// table lookups, and emit as *unverified* candidates exactly the probes
/// whose distortion-lifted score can still clear the per-probe threshold
/// (`len_i·(approx_i + errs[i]) ≥ θ/‖q‖`, with LENGTH's downward boundary
/// slack). The shared verification step re-checks every candidate against
/// the full-precision vectors, so answers stay exact.
pub(crate) fn run(
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    quant: &QuantizedBucket,
    lut: &mut Vec<f64>,
    scores: &mut Vec<f64>,
    sink: &mut Sink,
) {
    quant.fill_lut(ctx.dir, lut);
    quant.scores(lut, scores);
    let cut = ctx.theta_over_len - 1e-12 * ctx.theta_over_len.abs();
    // `approx_i ≤ ‖recon_i‖ ≤ 1 + errs[i]`, so `approx_i + errs[i] ≤
    // 1 + 2·eps`: once `len·(1 + 2eps) < cut` no shorter probe qualifies.
    let lift = 1.0 + 2.0 * quant.eps();
    let errs = quant.errs();
    for (lid, &len) in bucket.lengths.iter().enumerate() {
        if len * lift < cut {
            break;
        }
        if len * (scores[lid] + errs[lid]) >= cut {
            sink.unverified.push(lid as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_data::synthetic::GeneratorConfig;

    fn dirs(n: usize, dim: usize, seed: u64) -> VectorStore {
        let store = GeneratorConfig::gaussian(n, dim, 0.8).generate(seed);
        let (_, dirs) = store.decompose();
        dirs
    }

    #[test]
    fn training_is_deterministic() {
        let d = dirs(120, 10, 3);
        let a = QuantizedBucket::train(&d, 6, 7).unwrap();
        let b = QuantizedBucket::train(&d, 6, 7).unwrap();
        assert_eq!(a, b);
        // A different seed may rotate the init but still encodes every row.
        let c = QuantizedBucket::train(&d, 6, 8).unwrap();
        assert_eq!(c.len(), 120);
    }

    #[test]
    fn eps_bounds_every_reconstruction_error() {
        let d = dirs(150, 12, 5);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        for i in 0..d.len() {
            let mut e = 0.0;
            for s in 0..q.subspaces() {
                let lo = s * q.sub_dim();
                let w = (d.dim() - lo).min(q.sub_dim());
                let c = q.codes().get(s * q.len() + i);
                let cb = &q.codebooks()[(s * q.k() + c) * q.sub_dim()..];
                e += kernels::dist_sq(&d.vector(i)[lo..lo + w], &cb[..w]);
            }
            assert!(e.sqrt() <= q.eps() + 1e-12, "probe {i}: {} > {}", e.sqrt(), q.eps());
        }
    }

    /// Directions of a different distribution than `dirs`: sparse and
    /// non-negative, plus signed unit axes.
    fn foreign_dirs(n: usize, dim: usize, seed: u64) -> VectorStore {
        let (_, mut d) = GeneratorConfig::sparse(n, dim, 1.0, 0.3).generate(seed).decompose();
        for f in 0..dim {
            let mut axis = vec![0.0; dim];
            axis[f] = if f % 2 == 0 { 1.0 } else { -1.0 };
            d.push(&axis).unwrap();
        }
        d
    }

    #[test]
    fn per_probe_bounds_hold_for_directions_encoded_after_training() {
        let trained = dirs(200, 10, 61);
        let mut q = QuantizedBucket::train(&trained, 6, 1).unwrap();
        let warm_eps = q.eps();
        let mut all = trained.clone();
        let fresh = foreign_dirs(50, 10, 62);
        for (j, d) in fresh.iter().enumerate() {
            let pos = (j * 37) % (all.len() + 1);
            q.insert(pos, d);
            all.insert_row(pos, d).unwrap();
        }
        assert_eq!(q.len(), all.len());
        assert!(q.eps() > warm_eps, "foreign directions should fit the codebooks worse");
        // Cauchy–Schwarz per probe, for unit queries from both distributions.
        let (mut lut, mut scores) = (Vec::new(), Vec::new());
        for queries in [dirs(20, 10, 63), foreign_dirs(20, 10, 64)] {
            for query in queries.iter() {
                q.fill_lut(query, &mut lut);
                q.scores(&lut, &mut scores);
                for (i, &score) in scores.iter().enumerate() {
                    let truth = kernels::dot(query, all.vector(i));
                    assert!((truth - score).abs() <= q.errs()[i] + 1e-12, "probe {i}");
                }
            }
        }
        // The edited state is exactly what an image of it reloads to.
        let re = QuantizedBucket::from_parts(
            q.bits(),
            q.sub_dim(),
            q.k(),
            q.codebooks().to_vec(),
            q.codes().clone(),
            &all,
        )
        .unwrap();
        assert_eq!(q, re);
        // Removals too, down to one probe per centroid.
        let mut rng = 7u64;
        while q.len() > q.k() {
            let pos = splitmix(&mut rng) as usize % q.len();
            q.remove(pos);
            all.remove_row(pos);
        }
        let re = QuantizedBucket::from_parts(
            q.bits(),
            q.sub_dim(),
            q.k(),
            q.codebooks().to_vec(),
            q.codes().clone(),
            &all,
        )
        .unwrap();
        assert_eq!(q, re);
    }

    #[test]
    #[should_panic(expected = "fewer probes than")]
    fn removal_below_the_centroid_count_is_refused() {
        let d = dirs(8, 4, 65);
        let mut q = QuantizedBucket::train(&d, 3, 1).unwrap();
        assert_eq!(q.k(), 8);
        q.remove(0);
    }

    #[test]
    fn lut_scores_match_reconstructed_dots() {
        let d = dirs(90, 9, 11);
        let q = QuantizedBucket::train(&d, 5, 2).unwrap();
        let query = d.vector(0).to_vec();
        let mut lut = Vec::new();
        let mut scores = Vec::new();
        q.fill_lut(&query, &mut lut);
        q.scores(&lut, &mut scores);
        for (i, &score) in scores.iter().enumerate() {
            // Reconstruct probe i and dot it with the query directly.
            let mut expect = 0.0;
            for s in 0..q.subspaces() {
                let lo = s * q.sub_dim();
                let w = (d.dim() - lo).min(q.sub_dim());
                let c = q.codes().get(s * q.len() + i);
                let cb = &q.codebooks()[(s * q.k() + c) * q.sub_dim()..];
                expect += kernels::dot(&query[lo..lo + w], &cb[..w]);
            }
            assert!((score - expect).abs() < 1e-9, "probe {i}");
        }
        // And approximation error per probe is within eps (unit query).
        for (i, &score) in scores.iter().enumerate() {
            let truth = kernels::dot(&query, d.vector(i));
            assert!((truth - score).abs() <= q.eps() + 1e-9, "probe {i}");
        }
    }

    #[test]
    fn more_bits_reduce_distortion() {
        let d = dirs(256, 16, 21);
        let lo = QuantizedBucket::train(&d, 2, 1).unwrap();
        let hi = QuantizedBucket::train(&d, 8, 1).unwrap();
        assert!(hi.eps() <= lo.eps(), "8-bit eps {} vs 2-bit {}", hi.eps(), lo.eps());
    }

    #[test]
    fn wide_codes_use_u16_storage() {
        let d = dirs(700, 8, 31);
        let q = QuantizedBucket::train(&d, 9, 1).unwrap();
        assert!(matches!(q.codes(), QuantCodes::U16(_)));
        assert!(q.k() <= 512);
        let q8 = QuantizedBucket::train(&d, 8, 1).unwrap();
        assert!(matches!(q8.codes(), QuantCodes::U8(_)));
        assert!(q8.k() <= 256);
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        let empty = VectorStore::empty(4).unwrap();
        assert!(QuantizedBucket::train(&empty, 8, 1).is_none());
        let d = dirs(10, 4, 1);
        assert!(QuantizedBucket::train(&d, 0, 1).is_none());
        assert!(QuantizedBucket::train(&d, 17, 1).is_none());
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let d = dirs(80, 10, 41);
        let q = QuantizedBucket::train(&d, 4, 3).unwrap();
        let re = QuantizedBucket::from_parts(
            q.bits(),
            q.sub_dim(),
            q.k(),
            q.codebooks().to_vec(),
            q.codes().clone(),
            &d,
        )
        .unwrap();
        assert_eq!(q, re);
        // Hostile parts: out-of-range code.
        let mut bad = match q.codes().clone() {
            QuantCodes::U8(v) => v,
            QuantCodes::U16(_) => unreachable!(),
        };
        bad[0] = u8::MAX;
        let err = QuantizedBucket::from_parts(
            q.bits(),
            q.sub_dim(),
            q.k(),
            q.codebooks().to_vec(),
            QuantCodes::U8(bad),
            &d,
        )
        .unwrap_err();
        assert!(err.contains("≥ k"), "{err}");
        // Hostile parts: truncated codebooks.
        let err = QuantizedBucket::from_parts(
            q.bits(),
            q.sub_dim(),
            q.k(),
            q.codebooks()[..q.codebooks().len() - 1].to_vec(),
            q.codes().clone(),
            &d,
        )
        .unwrap_err();
        assert!(err.contains("codebook values"), "{err}");
        // Hostile parts: non-finite codebook entry.
        let mut cb = q.codebooks().to_vec();
        cb[0] = f64::NAN;
        let err =
            QuantizedBucket::from_parts(q.bits(), q.sub_dim(), q.k(), cb, q.codes().clone(), &d)
                .unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn resident_bytes_shrink_the_representation() {
        let d = dirs(2000, 16, 51);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        let full = 2000 * 16 * 8; // f64 directions alone
        assert!(q.resident_bytes() * 4 < full, "quantized {} vs full {full}", q.resident_bytes());
    }
}
