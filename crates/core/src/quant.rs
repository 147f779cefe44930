//! Quantized probe buckets: PQ-style subspace codebooks with small-LUT
//! scoring (the ROADMAP's "High-Rate Nested-Lattice Quantized Matrix
//! Multiplication with Small Lookup Tables" direction).
//!
//! Unit directions are cut into `m` subspaces of [`SUB_DIM`] coordinates.
//! An engine (each shard of a sharded one) trains **one** [`Codebook`] — per
//! subspace `k ≤ 2^bits` centroids, from deterministic Lloyd iterations
//! over a fixed, seeded sample of at most [`TRAIN_SAMPLE`] of its probe
//! directions — and every bucket stores its probes as `m` packed code
//! indices against it ([`QuantizedBucket`]). At query time a
//! query-specific lookup table (`lut[s·k + c] = q̄_s · centroid_{s,c}`) is
//! filled once per query and reused by every bucket visit of that query
//! ([`QueryLut`]); each probe's approximate cosine is then `m` table
//! lookups — the gather-accumulate kernels in `lemp-linalg`
//! ([`lemp_linalg::kernels::lut_scan_u8`]) run this scan in scalar or AVX2
//! form with bit-identical results.
//!
//! The codebook trains at warm-up, in [`crate::DynamicLemp::rebuild`], and
//! on first QUANT use of a cold engine; training depends only on the probe
//! directions and the seed. Edits never train: they encode against the
//! engine's codebook (see [`crate::dynamic`]).
//!
//! Training (each Lloyd assignment) and encoding search every subspace's
//! `k` centroids for the nearest one through
//! [`lemp_linalg::kernels::nearest_centroid`], which scans four centroids
//! per AVX2 step in two independent chains (scalar elsewhere) and returns
//! the scalar scan's first minimum, with distances bit-identical to
//! [`lemp_linalg::kernels::dist_sq`]. It reads a copy of the centroids
//! transposed into 4 rows of `k` per subspace, kept in its own field beside
//! the centroids. The copy is derived state: built whenever a codebook is
//! assembled (trained or loaded), refreshed after every Lloyd update inside
//! training, and never persisted. It doubles the codebook's residency (at
//! 50-d and 8 bits, 106 KB of centroids plus 106 KB of copy), but
//! [`Codebook::resident_bytes`] and so `memory_usage()` count only the
//! centroids, the part an image holds.
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
//! The bound is per probe because most directions are encoded by a
//! codebook trained on other directions (a sample, and later every edit):
//! such a probe may sit far from every centroid, and its large error
//! loosens only its own test, not the whole bucket's. `errs` is derived
//! state — [`QuantizedBucket::from_codes`] recomputes it from the
//! directions and codes, and images never store it. The *approximate* mode
//! (scoring by `len_i·approx_i` without verification, used by the
//! `crates/approx` recall harness) trades the exactness guarantee for
//! speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lemp_linalg::{kernels, VectorStore};

use crate::algos::{QueryCtx, Sink};
use crate::bucket::Bucket;

/// Coordinates per quantization subspace. Four doubles collapse into one
/// code byte at 8 bits — the 4–8× residency reduction the ROADMAP targets —
/// while keeping per-subspace codebooks expressive at small `k`.
pub const SUB_DIM: usize = 4;

/// Largest accepted code width; wider codes would not fit `u16` storage.
pub const MAX_QUANT_BITS: u8 = 16;

/// Most probe directions an engine's codebook trains on. A fixed sample
/// keeps training time independent of the catalogue size; every probe is
/// then encoded against the result.
pub const TRAIN_SAMPLE: usize = 2048;

/// Lloyd iterations per subspace codebook (deterministic, seeded init).
const KMEANS_ITERS: usize = 6;

/// Seed of an engine's codebook: its training sample and Lloyd init.
const ENGINE_SEED: u64 = 0x1E4D_C0DE;

/// Process-global codebook stamp source (`0` is never handed out), in the
/// manner of the bucketization epoch: every trained or loaded codebook gets
/// a stamp no other codebook ever had, so a cached lookup table keyed on it
/// can never be mistaken for another codebook's.
static CODEBOOK_STAMP: AtomicU64 = AtomicU64::new(1);

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

    /// Splits every subspace row of `n` probes at `mid`: `self` keeps the
    /// first `mid` probes, the rest are returned.
    fn split_off(&mut self, n: usize, mid: usize) -> Self {
        fn split<T: Copy>(rows: &[T], n: usize, mid: usize) -> (Vec<T>, Vec<T>) {
            let (mut head, mut tail) = (Vec::new(), Vec::new());
            for row in rows.chunks_exact(n) {
                head.extend_from_slice(&row[..mid]);
                tail.extend_from_slice(&row[mid..]);
            }
            (head, tail)
        }
        match self {
            QuantCodes::U8(v) => {
                let (head, tail) = split(v, n, mid);
                *v = head;
                QuantCodes::U8(tail)
            }
            QuantCodes::U16(v) => {
                let (head, tail) = split(v, n, mid);
                *v = head;
                QuantCodes::U16(tail)
            }
        }
    }
}

/// One engine's subspace codebooks: `m · k` centroids of [`SUB_DIM`]
/// doubles, shared by every bucket's codes and by the per-query lookup
/// table. Immutable once built; its [`stamp`](Self::stamp) names it.
#[derive(Debug)]
pub struct Codebook {
    bits: u8,
    sub_dim: usize,
    m: usize,
    k: usize,
    dim: usize,
    /// `m · k` centroids of `sub_dim` doubles each, subspace-major; the
    /// last subspace's trailing coordinates are zero-padded.
    centroids: Vec<f64>,
    /// The centroids again, for the nearest-centroid search: per subspace,
    /// transposed into 4 rows of `k` ([`transpose_subspace`]). Derived
    /// state, built with the codebook and never persisted.
    search: Vec<f64>,
    stamp: u64,
}

/// Equal centroids and shape; the stamp is identity, not content.
impl PartialEq for Codebook {
    fn eq(&self, other: &Self) -> bool {
        (self.bits, self.sub_dim, self.k, self.dim)
            == (other.bits, other.sub_dim, other.k, other.dim)
            && self.centroids == other.centroids
    }
}

impl Codebook {
    fn assemble(bits: u8, sub_dim: usize, k: usize, dim: usize, centroids: Vec<f64>) -> Self {
        let stamp = CODEBOOK_STAMP.fetch_add(1, Ordering::Relaxed);
        let m = dim.div_ceil(sub_dim);
        let mut search = vec![0.0; m * 4 * k];
        for s in 0..m {
            let cb = &centroids[s * k * sub_dim..(s + 1) * k * sub_dim];
            transpose_subspace(cb, sub_dim, &mut search[s * 4 * k..(s + 1) * 4 * k]);
        }
        Self { bits, sub_dim, m, k, dim, centroids, search, stamp }
    }

    /// Trains subspace codebooks on every row of `dirs` (unit directions)
    /// at the given code width, with `k = min(2^bits, rows)` centroids per
    /// subspace. Deterministic: the same rows and seed always produce the
    /// same centroids. Returns `None` for an empty store, zero
    /// dimensionality, or a code width outside `1..=`[`MAX_QUANT_BITS`].
    pub fn train(dirs: &VectorStore, bits: u8, seed: u64) -> Option<Self> {
        let (n, dim) = (dirs.len(), dirs.dim());
        if n == 0 || dim == 0 || bits == 0 || bits > MAX_QUANT_BITS {
            return None;
        }
        let sub_dim = SUB_DIM.min(dim);
        let m = dim.div_ceil(sub_dim);
        let k = n.min(1usize << bits);
        let mut centroids = vec![0.0; m * k * sub_dim];
        let mut err_sq = vec![0.0f64; n];
        let mut cols = vec![0.0; 4 * k];
        let mut rng = seed | 1;
        for s in 0..m {
            let lo = s * sub_dim;
            let w = (dim - lo).min(sub_dim);
            let cb = &mut centroids[s * k * sub_dim..(s + 1) * k * sub_dim];
            // Seeded rotation over evenly spaced rows: deterministic and
            // spread across the length-sorted sample.
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
                // The search reads the centroids as they stand after the
                // last update.
                transpose_subspace(cb, sub_dim, &mut cols);
                for (i, e) in err_sq.iter_mut().enumerate() {
                    let point = &dirs.vector(i)[lo..lo + w];
                    let (best, best_d) = kernels::nearest_centroid(point, &cols);
                    *e = best_d;
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
        }
        Some(Self::assemble(bits, sub_dim, k, dim, centroids))
    }

    /// Trains an engine's codebook on at most [`TRAIN_SAMPLE`] of the
    /// buckets' directions, taken by a seeded stride over all of them in
    /// bucket order. `None` when the buckets hold no probes.
    pub(crate) fn train_for(buckets: &[Bucket], bits: u8) -> Option<Self> {
        let n: usize = buckets.iter().map(Bucket::len).sum();
        let dim = buckets.first()?.dirs.dim();
        if n == 0 {
            return None;
        }
        let s = TRAIN_SAMPLE.min(n);
        let mut rng = ENGINE_SEED;
        let offset = splitmix(&mut rng) as usize % n;
        let mut rows: Vec<usize> = (0..s).map(|i| (offset + i * n / s) % n).collect();
        rows.sort_unstable();
        let mut flat = Vec::with_capacity(s * dim);
        let (mut b, mut base) = (0, 0);
        for g in rows {
            while g >= base + buckets[b].len() {
                base += buckets[b].len();
                b += 1;
            }
            flat.extend_from_slice(buckets[b].dirs.vector(g - base));
        }
        let sample = VectorStore::from_flat(flat, dim).expect("rows of the buckets' dimension");
        Self::train(&sample, bits, ENGINE_SEED)
    }

    /// Reassembles a codebook from persisted parts for directions of
    /// dimensionality `dim`, validating every shape and value.
    pub fn from_parts(
        bits: u8,
        sub_dim: usize,
        k: usize,
        centroids: Vec<f64>,
        dim: usize,
    ) -> Result<Self, String> {
        if bits == 0 || bits > MAX_QUANT_BITS {
            return Err(format!("quantized section: bits {bits} outside 1..=16"));
        }
        if sub_dim == 0 || sub_dim != SUB_DIM.min(dim) {
            return Err(format!("quantized section: sub_dim {sub_dim} mismatches dim {dim}"));
        }
        if k == 0 || k > (1usize << bits) {
            return Err(format!("quantized section: k {k} invalid for bits {bits}"));
        }
        let want = dim
            .div_ceil(sub_dim)
            .checked_mul(k)
            .and_then(|x| x.checked_mul(sub_dim))
            .ok_or("quantized section: codebook size overflows")?;
        if centroids.len() != want {
            return Err(format!(
                "quantized section: {} codebook values, expected {want}",
                centroids.len()
            ));
        }
        if centroids.iter().any(|v| !v.is_finite()) {
            return Err("quantized section: non-finite codebook value".to_string());
        }
        Ok(Self::assemble(bits, sub_dim, k, dim, centroids))
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

    /// The raw centroids (`m · k` of [`Self::sub_dim`] doubles,
    /// subspace-major) — persistence and inspection.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// This codebook's identity: unique among every codebook the process
    /// has trained or loaded.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Resident bytes of the centroids. The transposed search copy, derived
    /// state of the same size, is not counted.
    pub fn resident_bytes(&self) -> usize {
        self.centroids.len() * 8
    }

    /// The centroids of subspace `s`.
    fn subspace(&self, s: usize) -> &[f64] {
        &self.centroids[s * self.k * self.sub_dim..(s + 1) * self.k * self.sub_dim]
    }

    /// Writes `dir`'s nearest centroid per subspace into `code` and returns
    /// its distortion `‖dir − recon‖`.
    fn encode_into(&self, dir: &[f64], mut code: impl FnMut(usize, u16)) -> f64 {
        let mut err_sq = 0.0;
        for s in 0..self.m {
            let lo = s * self.sub_dim;
            let w = (self.dim - lo).min(self.sub_dim);
            let cols = &self.search[s * 4 * self.k..(s + 1) * 4 * self.k];
            let (best, best_d) = kernels::nearest_centroid(&dir[lo..lo + w], cols);
            code(s, best as u16);
            err_sq += best_d;
        }
        err_sq.sqrt()
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
            let cbs = self.subspace(s);
            if w == 4 && self.sub_dim == 4 {
                // The hot shape (full subspaces): an inlined 4-dot with the
                // same `(s0 + s1) + (s2 + s3)` reduction as `kernels::dot`,
                // so the table is bit-identical but skips `k` dispatched
                // calls per subspace.
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
}

/// A query's lookup table, kept across bucket visits: it is refilled only
/// when asked for another codebook (by [`Codebook::stamp`]) or another
/// query direction (compared bit for bit), so a Row-Top-k sweep fills it
/// once per query however many QUANT buckets it visits.
#[derive(Debug, Clone, Default)]
pub struct QueryLut {
    /// Stamp of the codebook the table was filled from (`0`: none yet).
    stamp: u64,
    /// The direction the table was filled for.
    dir: Vec<f64>,
    table: Vec<f64>,
}

impl QueryLut {
    /// The table of `codebook` for the unit direction `dir`, filled now
    /// unless the cached one was built for exactly this pair.
    pub fn table_for(&mut self, codebook: &Codebook, dir: &[f64]) -> &[f64] {
        let same_dir = self.dir.len() == dir.len()
            && self.dir.iter().zip(dir).all(|(a, b)| a.to_bits() == b.to_bits());
        if self.stamp != codebook.stamp() || !same_dir {
            codebook.fill_lut(dir, &mut self.table);
            self.stamp = codebook.stamp();
            self.dir.clear();
            self.dir.extend_from_slice(dir);
        }
        &self.table
    }
}

/// The quantized representation of one bucket: packed per-probe codes
/// against the engine's shared [`Codebook`], plus per-probe distortion
/// bounds (see the module docs for the exactness contract).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBucket {
    codebook: Arc<Codebook>,
    n: usize,
    codes: QuantCodes,
    /// `errs[i] = ‖d̄_i − recon_i‖`, in probe order.
    errs: Vec<f64>,
    /// `max_i errs[i]` (0 when empty).
    eps: f64,
}

impl QuantizedBucket {
    /// Trains a codebook on every row of `dirs` (see [`Codebook::train`])
    /// and encodes the rows against it — a self-contained quantized set
    /// for callers without an engine. `None` where training refuses.
    pub fn train(dirs: &VectorStore, bits: u8, seed: u64) -> Option<Self> {
        Codebook::train(dirs, bits, seed).map(|cb| Self::encode(Arc::new(cb), dirs))
    }

    /// Encodes every row of `dirs` against `codebook` — one nearest-centroid
    /// search per subspace, no training.
    ///
    /// # Panics
    /// If `dirs` has another dimensionality than the codebook.
    pub fn encode(codebook: Arc<Codebook>, dirs: &VectorStore) -> Self {
        assert_eq!(dirs.dim(), codebook.dim, "directions and codebook differ in dimensionality");
        let (n, m) = (dirs.len(), codebook.m);
        let mut wide = vec![0u16; m * n];
        let errs: Vec<f64> = (0..n)
            .map(|i| codebook.encode_into(dirs.vector(i), |s, c| wide[s * n + i] = c))
            .collect();
        let codes = if codebook.bits <= 8 {
            QuantCodes::U8(wide.iter().map(|&c| c as u8).collect())
        } else {
            QuantCodes::U16(wide)
        };
        Self { codebook, n, codes, eps: max_of(&errs), errs }
    }

    /// Reassembles a quantized bucket from persisted codes against
    /// `codebook`, validating every shape and code value against the
    /// bucket's full-precision directions. The per-probe distortion bounds
    /// are **recomputed** from `dirs` — images never carry them — so no
    /// stored value can silently break the exactness contract.
    pub fn from_codes(
        codebook: Arc<Codebook>,
        codes: QuantCodes,
        dirs: &VectorStore,
    ) -> Result<Self, String> {
        let (n, dim) = (dirs.len(), dirs.dim());
        if dim != codebook.dim {
            return Err(format!("quantized section: dim {dim} mismatches the codebook's"));
        }
        let want = codebook.m.checked_mul(n).ok_or("quantized section: code count overflows")?;
        if codes.len() != want {
            return Err(format!("quantized section: {} codes, expected {want}", codes.len()));
        }
        if matches!(codes, QuantCodes::U16(_)) != (codebook.bits > 8) {
            return Err("quantized section: code width mismatches bits".to_string());
        }
        for idx in 0..codes.len() {
            if codes.get(idx) >= codebook.k {
                return Err(format!(
                    "quantized section: code {} ≥ k {}",
                    codes.get(idx),
                    codebook.k
                ));
            }
        }
        let mut q = Self { codebook, n, codes, errs: Vec::new(), eps: 0.0 };
        q.errs = (0..n).map(|i| q.recon_err(i, dirs.vector(i))).collect();
        q.eps = max_of(&q.errs);
        Ok(q)
    }

    /// `‖dir − recon_i‖` for the direction `dir` of probe `i`.
    fn recon_err(&self, i: usize, dir: &[f64]) -> f64 {
        let cb = &self.codebook;
        let mut e = 0.0;
        for s in 0..cb.m {
            let lo = s * cb.sub_dim;
            let w = (cb.dim - lo).min(cb.sub_dim);
            let c = self.codes.get(s * self.n + i);
            let centroid = &cb.subspace(s)[c * cb.sub_dim..];
            e += kernels::dist_sq(&dir[lo..lo + w], &centroid[..w]);
        }
        e.sqrt()
    }

    /// Encodes a direction inserted at probe position `pos` against the
    /// codebook — one nearest-centroid search per subspace, no training —
    /// and records its own distortion bound. Equals [`Self::from_codes`]
    /// over the edited directions and codes.
    ///
    /// # Panics
    /// If `pos > len()` or `dir` has the wrong dimensionality.
    pub(crate) fn insert(&mut self, pos: usize, dir: &[f64]) {
        assert!(pos <= self.n && dir.len() == self.codebook.dim, "insert out of shape");
        let mut code = vec![0u16; self.codebook.m];
        let err = self.codebook.encode_into(dir, |s, c| code[s] = c);
        self.codes.insert(self.n, pos, &code);
        self.n += 1;
        self.errs.insert(pos, err);
        self.eps = self.eps.max(err);
    }

    /// Cuts probe `pos` out of the codes and bounds.
    ///
    /// # Panics
    /// If `pos ≥ len()`.
    pub(crate) fn remove(&mut self, pos: usize) {
        assert!(pos < self.n, "remove position {pos} out of bounds (len {})", self.n);
        self.codes.remove(self.n, pos);
        self.n -= 1;
        self.errs.remove(pos);
        self.eps = max_of(&self.errs);
    }

    /// Splits the codes at probe `mid`: `self` keeps probes `..mid`, the
    /// returned part holds `mid..` (what encoding either half would give).
    ///
    /// # Panics
    /// If the bucket is empty or `mid > len()`.
    pub(crate) fn split_off(&mut self, mid: usize) -> Self {
        assert!(mid <= self.n, "split position {mid} out of bounds (len {})", self.n);
        let codes = self.codes.split_off(self.n, mid);
        let errs = self.errs.split_off(mid);
        let tail_n = self.n - mid;
        self.n = mid;
        self.eps = max_of(&self.errs);
        Self { codebook: Arc::clone(&self.codebook), n: tail_n, codes, eps: max_of(&errs), errs }
    }

    /// The codebook these codes index.
    pub fn codebook(&self) -> &Arc<Codebook> {
        &self.codebook
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.codebook.bits
    }

    /// Centroids per subspace codebook.
    pub fn k(&self) -> usize {
        self.codebook.k
    }

    /// Encoded probe count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if no probes are encoded.
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

    /// The packed codes — persistence and inspection.
    pub fn codes(&self) -> &QuantCodes {
        &self.codes
    }

    /// Resident bytes of this bucket's share of the representation: the
    /// codes and the 8-byte per-probe bounds. The shared codebook is
    /// counted once per engine ([`Codebook::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.codes.bytes() + self.errs.len() * 8
    }

    /// [`Codebook::fill_lut`] of this bucket's codebook.
    pub fn fill_lut(&self, dir: &[f64], lut: &mut Vec<f64>) {
        self.codebook.fill_lut(dir, lut)
    }

    /// Approximate cosines of every probe against the query the LUT was
    /// built for — the tight gather-accumulate scan (scalar or AVX2,
    /// bit-identical).
    pub fn scores(&self, lut: &[f64], out: &mut Vec<f64>) {
        let (m, k) = (self.codebook.m, self.codebook.k);
        out.clear();
        out.resize(self.n, 0.0);
        match &self.codes {
            QuantCodes::U8(codes) => kernels::lut_scan_u8(codes, lut, self.n, m, k, out),
            QuantCodes::U16(codes) => kernels::lut_scan_u16(codes, lut, self.n, m, k, out),
        }
    }
}

fn max_of(errs: &[f64]) -> f64 {
    errs.iter().fold(0.0f64, |acc, &e| acc.max(e))
}

/// Transposes one subspace's `k` centroids of `sub_dim` doubles (`cb`,
/// row-major) into the 4 rows of `k` that [`kernels::nearest_centroid`]
/// reads (`out[j·k + c]` is coordinate `j` of centroid `c`; rows
/// `j ≥ sub_dim` are zero). The search's distances are bit-identical to
/// `kernels::dist_sq` over the subspace's coordinates, so the bounds
/// [`QuantizedBucket::from_codes`] recomputes through that kernel equal
/// the ones encoding records.
fn transpose_subspace(cb: &[f64], sub_dim: usize, out: &mut [f64]) {
    let k = out.len() / 4;
    out[sub_dim * k..].fill(0.0);
    for c in 0..k {
        for j in 0..sub_dim {
            out[j * k + c] = cb[c * sub_dim + j];
        }
    }
}

/// The QUANT bucket scan: take the query's LUT (filled once per query and
/// codebook), score every probe by table lookups, and emit as *unverified*
/// candidates exactly the probes whose distortion-lifted score can still
/// clear the per-probe threshold (`len_i·(approx_i + errs[i]) ≥ θ/‖q‖`,
/// with LENGTH's downward boundary slack). The shared verification step
/// re-checks every candidate against the full-precision vectors, so
/// answers stay exact.
pub(crate) fn run(
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    quant: &QuantizedBucket,
    lut: &mut QueryLut,
    scores: &mut Vec<f64>,
    sink: &mut Sink,
) {
    quant.scores(lut.table_for(quant.codebook(), ctx.dir), scores);
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

    /// `from_codes` of `q`'s own codes against its codebook.
    fn reload(q: &QuantizedBucket, dirs: &VectorStore) -> QuantizedBucket {
        QuantizedBucket::from_codes(Arc::clone(q.codebook()), q.codes().clone(), dirs).unwrap()
    }

    #[test]
    fn training_is_deterministic() {
        let d = dirs(120, 10, 3);
        let a = QuantizedBucket::train(&d, 6, 7).unwrap();
        let b = QuantizedBucket::train(&d, 6, 7).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.codebook().stamp(), b.codebook().stamp(), "every training gets a stamp");
        // A different seed may rotate the init but still encodes every row.
        let c = QuantizedBucket::train(&d, 6, 8).unwrap();
        assert_eq!(c.len(), 120);
    }

    #[test]
    fn eps_bounds_every_reconstruction_error() {
        let d = dirs(150, 12, 5);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        let cb = q.codebook();
        for i in 0..d.len() {
            let mut e = 0.0;
            for s in 0..cb.subspaces() {
                let lo = s * cb.sub_dim();
                let w = (d.dim() - lo).min(cb.sub_dim());
                let c = q.codes().get(s * q.len() + i);
                let centroid = &cb.centroids()[(s * cb.k() + c) * cb.sub_dim()..];
                e += kernels::dist_sq(&d.vector(i)[lo..lo + w], &centroid[..w]);
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
        // One codebook trained on a sample encodes every bucket: the rows
        // it never saw, foreign directions and signed axes included.
        let sample = dirs(200, 10, 61);
        let codebook = Arc::new(Codebook::train(&sample, 6, 1).unwrap());
        let warm = QuantizedBucket::encode(Arc::clone(&codebook), &sample);
        let mut all = dirs(120, 10, 66);
        let mut q = QuantizedBucket::encode(Arc::clone(&codebook), &all);
        let fresh = foreign_dirs(50, 10, 62);
        for (j, d) in fresh.iter().enumerate() {
            let pos = (j * 37) % (all.len() + 1);
            q.insert(pos, d);
            all.insert_row(pos, d).unwrap();
        }
        assert_eq!(q.len(), all.len());
        assert!(q.eps() > warm.eps(), "foreign directions should fit the codebook worse");
        // Cauchy–Schwarz per probe, for unit queries from both distributions.
        let (mut lut, mut scores) = (QueryLut::default(), Vec::new());
        for queries in [dirs(20, 10, 63), foreign_dirs(20, 10, 64)] {
            for query in queries.iter() {
                q.scores(lut.table_for(&codebook, query), &mut scores);
                for (i, &score) in scores.iter().enumerate() {
                    let truth = kernels::dot(query, all.vector(i));
                    assert!((truth - score).abs() <= q.errs()[i] + 1e-12, "probe {i}");
                }
            }
        }
        // The edited state is exactly a fresh encode, and what an image of
        // it reloads to.
        assert_eq!(q, QuantizedBucket::encode(Arc::clone(&codebook), &all));
        assert_eq!(q, reload(&q, &all));
        // Removals too, down to a single probe: codes never outlive their
        // rows and nothing retrains.
        let mut rng = 7u64;
        while q.len() > 1 {
            let pos = splitmix(&mut rng) as usize % q.len();
            q.remove(pos);
            all.remove_row(pos);
        }
        assert_eq!(q, QuantizedBucket::encode(Arc::clone(&codebook), &all));
        assert_eq!(q, reload(&q, &all));
        assert!(Arc::ptr_eq(q.codebook(), &codebook));
    }

    #[test]
    fn removal_down_to_one_probe_keeps_the_codebook() {
        // Fewer probes than centroids is an ordinary state now: a bucket's
        // codes index the engine's codebook, not one trained on the bucket.
        let d = dirs(8, 4, 65);
        let mut q = QuantizedBucket::train(&d, 3, 1).unwrap();
        assert_eq!(q.k(), 8);
        let mut left = d.clone();
        for _ in 0..7 {
            q.remove(0);
            left.remove_row(0);
            assert_eq!(q, reload(&q, &left));
        }
        assert_eq!((q.len(), q.k()), (1, 8));
    }

    #[test]
    fn splitting_equals_encoding_each_half() {
        for bits in [4u8, 9] {
            let d = dirs(90, 9, 67);
            let whole = QuantizedBucket::train(&d, bits, 3).unwrap();
            let cb = Arc::clone(whole.codebook());
            for mid in [0, 1, 45, 89, 90] {
                let mut h = whole.clone();
                let tail = h.split_off(mid);
                let rows = |r: std::ops::Range<usize>| d.select(&r.collect::<Vec<_>>());
                assert_eq!(h, QuantizedBucket::encode(Arc::clone(&cb), &rows(0..mid)), "{mid}");
                assert_eq!(tail, QuantizedBucket::encode(Arc::clone(&cb), &rows(mid..90)), "{mid}");
            }
        }
    }

    #[test]
    fn engine_codebook_trains_on_a_seeded_stride_sample() {
        use crate::bucket::{BucketPolicy, ProbeBuckets};
        let store = GeneratorConfig::gaussian(3000, 10, 1.0).generate(68);
        let pb = ProbeBuckets::build(&store, &BucketPolicy::default());
        assert!(pb.bucket_count() > 3);
        let a = Codebook::train_for(pb.buckets(), 8).unwrap();
        let b = Codebook::train_for(pb.buckets(), 8).unwrap();
        assert_eq!(a, b, "training depends only on the directions and the seed");
        assert_eq!(a.k(), 256);
        // Fewer probes than the sample: every direction trains, k shrinks.
        let small = ProbeBuckets::build(&dirs(100, 10, 69), &BucketPolicy::default());
        assert_eq!(Codebook::train_for(small.buckets(), 8).unwrap().k(), 100);
        assert!(Codebook::train_for(&[], 8).is_none());
    }

    #[test]
    fn query_lut_refills_only_for_another_codebook_or_direction() {
        let d = dirs(60, 10, 70);
        let a = Codebook::train(&d, 5, 1).unwrap();
        let b = Codebook::train(&d, 5, 1).unwrap(); // equal centroids, new stamp
        let dir = d.vector(3).to_vec();
        let mut nudged = dir.clone();
        nudged[9] = f64::from_bits(nudged[9].to_bits() ^ 1); // last bit of one coordinate
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_ne!(bits(&dir), bits(&nudged));
        let mut lut = QueryLut::default();
        let mut expect = Vec::new();
        for (cb, q) in [(&a, &dir), (&a, &dir), (&a, &nudged), (&b, &nudged), (&a, &nudged)] {
            let table = lut.table_for(cb, q).to_vec();
            cb.fill_lut(q, &mut expect);
            assert_eq!(table, expect);
            // The cached table is keyed on exactly this pair.
            assert_eq!((lut.stamp, bits(&lut.dir)), (cb.stamp(), bits(q)));
        }
    }

    #[test]
    fn lut_scores_match_reconstructed_dots() {
        let d = dirs(90, 9, 11);
        let q = QuantizedBucket::train(&d, 5, 2).unwrap();
        let cb = q.codebook();
        let query = d.vector(0).to_vec();
        let mut lut = Vec::new();
        let mut scores = Vec::new();
        q.fill_lut(&query, &mut lut);
        q.scores(&lut, &mut scores);
        for (i, &score) in scores.iter().enumerate() {
            // Reconstruct probe i and dot it with the query directly.
            let mut expect = 0.0;
            for s in 0..cb.subspaces() {
                let lo = s * cb.sub_dim();
                let w = (d.dim() - lo).min(cb.sub_dim());
                let c = q.codes().get(s * q.len() + i);
                let centroid = &cb.centroids()[(s * cb.k() + c) * cb.sub_dim()..];
                expect += kernels::dot(&query[lo..lo + w], &centroid[..w]);
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
        let cb = q.codebook();
        let parts = |centroids: Vec<f64>| {
            Codebook::from_parts(cb.bits(), cb.sub_dim(), cb.k(), centroids, d.dim())
        };
        let re = Arc::new(parts(cb.centroids().to_vec()).unwrap());
        assert_eq!(**cb, *re);
        assert_ne!(cb.stamp(), re.stamp(), "a loaded codebook gets its own stamp");
        assert_eq!(q, QuantizedBucket::from_codes(Arc::clone(&re), q.codes().clone(), &d).unwrap());
        // Hostile parts: out-of-range code.
        let mut bad = match q.codes().clone() {
            QuantCodes::U8(v) => v,
            QuantCodes::U16(_) => unreachable!(),
        };
        bad[0] = u8::MAX;
        let err =
            QuantizedBucket::from_codes(Arc::clone(&re), QuantCodes::U8(bad), &d).unwrap_err();
        assert!(err.contains("≥ k"), "{err}");
        // Hostile parts: truncated codes, wrong code width.
        let mut short = q.codes().clone();
        short.remove(q.len(), 0);
        let err = QuantizedBucket::from_codes(Arc::clone(&re), short, &d).unwrap_err();
        assert!(err.contains("codes, expected"), "{err}");
        let wide = QuantCodes::U16(vec![0; cb.subspaces() * q.len()]);
        let err = QuantizedBucket::from_codes(Arc::clone(&re), wide, &d).unwrap_err();
        assert!(err.contains("code width"), "{err}");
        // Hostile parts: truncated codebook.
        let err = parts(cb.centroids()[..cb.centroids().len() - 1].to_vec()).unwrap_err();
        assert!(err.contains("codebook values"), "{err}");
        // Hostile parts: non-finite codebook entry.
        let mut centroids = cb.centroids().to_vec();
        centroids[0] = f64::NAN;
        assert!(parts(centroids).unwrap_err().contains("non-finite"));
        // Hostile parts: more centroids than the code width addresses.
        let err = Codebook::from_parts(2, cb.sub_dim(), cb.k(), cb.centroids().to_vec(), d.dim())
            .unwrap_err();
        assert!(err.contains("invalid for bits"), "{err}");
    }

    /// FNV-1a over a codebook's shape and centroid bits and a bucket's
    /// codes and bound bits.
    fn fingerprint(q: &QuantizedBucket) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
            }
        };
        let cb = q.codebook();
        eat(cb.k() as u64);
        eat(cb.subspaces() as u64);
        cb.centroids().iter().for_each(|v| eat(v.to_bits()));
        (0..q.codes().len()).for_each(|i| eat(q.codes().get(i) as u64));
        q.errs().iter().for_each(|e| eat(e.to_bits()));
        h
    }

    #[test]
    fn trained_and_encoded_state_matches_its_golden_hashes() {
        // Hashes of what a one-centroid-at-a-time scan over row-major
        // centroids (`dist_sq` per centroid, first minimum) trains and
        // encodes: the four-centroid kernel must give the same centroids,
        // codes and bounds bit for bit. It runs on the ISA the process
        // dispatches to (`LEMP_FORCE_ISA=scalar` checks the fallback).
        // Shapes: (bits, training rows, encoded rows, dim) — full and
        // partial last subspaces (w = 4, 2, 3, 1), k below, at and above
        // eight, and a k that is no multiple of eight.
        let cases: [(u8, usize, usize, usize, u64); 6] = [
            (8, 1024, 600, 50, 0x79DB_4067_99CC_AA49),
            (4, 2048, 500, 50, 0xFA2B_D5B5_5202_42EF),
            (3, 100, 300, 10, 0x1A2A_B391_869E_F154),
            (8, 77, 200, 7, 0x43FD_9CB1_9A58_A6E7),
            (2, 40, 60, 3, 0xA8A0_9CD4_A74C_87FC),
            (9, 600, 100, 5, 0xB126_1654_EE12_D8E1),
        ];
        let isa = lemp_linalg::simd::active();
        for &(bits, n_train, n_enc, dim, want) in &cases {
            let cb = Codebook::train(&dirs(n_train, dim, 90), bits, 5).unwrap();
            let q = QuantizedBucket::encode(Arc::new(cb), &dirs(n_enc, dim, 91));
            assert_eq!(fingerprint(&q), want, "{isa:?}: {bits} bits, dim {dim}");
        }
    }

    #[test]
    fn resident_bytes_shrink_the_representation() {
        let d = dirs(2000, 16, 51);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        let full = 2000 * 16 * 8; // f64 directions alone
        let quant = q.resident_bytes() + q.codebook().resident_bytes();
        assert!(quant * 4 < full, "quantized {quant} vs full {full}");
    }
}
