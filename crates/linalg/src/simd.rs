//! Explicit SIMD kernels (x86-64 AVX2) with **bit-identical** results.
//!
//! The scalar kernels in [`crate::kernels`] use four independent
//! accumulators so that lane `i` sums exactly the elements `4k + i` in
//! increasing `k`, and the final reduction is `(s0 + s1) + (s2 + s3) + tail`.
//! The AVX2 kernels here perform *the same operations in the same order*:
//! one 4-lane vector accumulator where lane `i` plays the role of `s_i`,
//! multiplies and adds kept separate (no FMA — fusing would skip the
//! intermediate rounding and change results), and the identical horizontal
//! reduction at the end. Per-lane AVX2 arithmetic is ordinary IEEE-754
//! double arithmetic, so the SIMD results are equal **bit for bit** to the
//! scalar ones — verified exhaustively and property-tested in this module.
//!
//! The four-row inner product behind [`crate::kernels::dot_rows`] is under
//! the same contract, row by row against `dot`: it keeps four such 4-lane
//! accumulators, one per row, that share each query load (four dependency
//! chains in flight instead of one), and reduces each row exactly as `dot`
//! does. Its portable fallback keeps the same sixteen scalar accumulators.
//!
//! The nearest-centroid search behind [`crate::kernels::nearest_centroid`]
//! (quantization training and encoding) computes each centroid's squared
//! distance as `(d0² + d1²) + (d2² + d3²)`, exactly as
//! [`crate::kernels::dist_sq`] rounds a subspace of four coordinates, for
//! four centroids per vector (one per lane) in two independent chains.
//! Coordinates past the point's width `w` add an exact `0.0`, which
//! reproduces `dist_sq` of `w` coordinates bit for bit, and the first
//! minimum is kept: a lane replaces its best only on a strictly smaller
//! distance, and the lanes reduce to the smallest distance at the smallest
//! index.
//!
//! Bit-identity matters in this workspace: exact LEMP variants are tested
//! to return byte-identical results to the Naive baseline, and the dynamic
//! maintenance engine looks vectors up by the bit pattern of their stored
//! lengths. Because the dispatched kernels never change any produced value,
//! enabling SIMD is purely a throughput decision.
//!
//! This is the only module in the workspace containing `unsafe` code; every
//! block is a call to `#[target_feature(enable = "avx2")]` functions guarded
//! by a cached runtime CPUID check ([`active`]).

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction sets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable unrolled slice code (works everywhere).
    Scalar,
    /// 256-bit AVX2 double-precision kernels (x86-64 only).
    Avx2,
}

const ISA_UNKNOWN: u8 = 0;
const ISA_SCALAR: u8 = 1;
const ISA_AVX2: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(ISA_UNKNOWN);

/// Returns the instruction set the kernels currently dispatch to.
///
/// Detection runs once (CPUID via `is_x86_feature_detected!`) and is cached
/// in a relaxed atomic; subsequent calls are a load and a compare. The
/// environment variable `LEMP_FORCE_ISA` (`scalar` or `avx2`) overrides
/// autodetection — this is how CI exercises the scalar fallbacks on
/// AVX2-capable runners, where compiling for a baseline target CPU alone
/// would change nothing (dispatch happens at run time, not compile time).
#[inline]
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        ISA_SCALAR => Isa::Scalar,
        ISA_AVX2 => Isa::Avx2,
        _ => detect(),
    }
}

#[cold]
fn detect() -> Isa {
    let isa = match std::env::var("LEMP_FORCE_ISA").as_deref() {
        Ok("scalar") => Isa::Scalar,
        Ok("avx2") => {
            assert!(avx2_supported(), "LEMP_FORCE_ISA=avx2 but the CPU lacks avx2");
            Isa::Avx2
        }
        _ => {
            if avx2_supported() {
                Isa::Avx2
            } else {
                Isa::Scalar
            }
        }
    };
    ACTIVE.store(isa_code(isa), Ordering::Relaxed);
    isa
}

fn isa_code(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => ISA_SCALAR,
        Isa::Avx2 => ISA_AVX2,
    }
}

/// Whether this CPU can run the AVX2 kernels.
#[inline]
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Forces the dispatcher to `isa` and returns the previously active set.
///
/// Intended for benchmarks (measuring the scalar/SIMD gap on the same
/// machine) and for tests that must exercise both paths. Requesting
/// [`Isa::Avx2`] on a CPU without AVX2 is a caller bug and panics.
pub fn override_isa(isa: Isa) -> Isa {
    if isa == Isa::Avx2 {
        assert!(avx2_supported(), "cannot force AVX2 kernels: CPU lacks avx2");
    }
    let prev = active();
    ACTIVE.store(isa_code(isa), Ordering::Relaxed);
    prev
}

/// Vectors shorter than this stay on the scalar path: the call into the
/// `target_feature` function (which cannot be inlined into generic callers)
/// costs more than it saves below roughly two SIMD chunks.
const MIN_SIMD_LEN: usize = 8;

/// Dispatched inner product; see [`crate::kernels::dot`] for the contract.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: `active()` only returns `Avx2` after `is_x86_feature_detected!`
        // confirmed the CPU supports it (or after `override_isa` asserted so).
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Dispatched four-row inner product; see [`crate::kernels::dot_rows`] for
/// the contract (each value bit-identical to [`dot`] of its row).
#[inline]
pub(crate) fn dot4(q: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
    if rows.iter().any(|r| r.len() != q.len()) {
        // Rows of another length: `dot` truncates each pair on its own.
        return rows.map(|r| dot(q, r));
    }
    #[cfg(target_arch = "x86_64")]
    if q.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; every row is as long as `q` (checked above).
        return unsafe { avx2::dot4(q, rows) };
    }
    dot4_scalar(q, rows)
}

/// Dispatched squared distance; see [`crate::kernels::dist_sq`].
#[inline]
pub(crate) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`.
        return unsafe { avx2::dist_sq(a, b) };
    }
    dist_sq_scalar(a, b)
}

/// Dispatched `a += s·b`; see [`crate::kernels::axpy`].
#[inline]
pub(crate) fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`.
        unsafe { avx2::axpy(s, b, a) };
        return;
    }
    axpy_scalar(s, b, a);
}

/// Fewest centroids worth the AVX2 nearest-centroid search: one full step
/// of two 4-lane chains. Smaller codebooks take the scalar loop.
const MIN_SIMD_CENTROIDS: usize = 8;

/// Dispatched nearest-centroid search; see
/// [`crate::kernels::nearest_centroid`] for the contract.
#[inline]
pub(crate) fn nearest_centroid(point: &[f64], cols: &[f64]) -> (usize, f64) {
    let k = cols.len() / 4;
    debug_assert!((1..=4).contains(&point.len()) && cols.len() == 4 * k);
    #[cfg(target_arch = "x86_64")]
    if k >= MIN_SIMD_CENTROIDS && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; the kernel loads only rows `j < 4` of `cols`,
        // each `k = cols.len() / 4` long, so every load stays inside `cols`
        // whatever the point's length (its coordinates are bounds-checked).
        return unsafe { avx2::nearest_centroid(point, cols, k) };
    }
    nearest_centroid_scalar(point, cols)
}

/// Dispatched LUT gather-accumulate scan over `u8` codes; see
/// [`crate::kernels::lut_scan_u8`] for the contract.
#[inline]
pub(crate) fn lut_scan_u8(
    codes: &[u8],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    debug_assert!(k >= 1 && codes.len() == m * n && lut.len() == m * k && out.len() >= n);
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; slice shapes are checked by the public
        // wrapper, and every table index is clamped to `k - 1` before the
        // gather, so no lane can read outside `lut`.
        return unsafe { avx2::lut_scan_u8(codes, lut, n, m, k, out) };
    }
    lut_scan_u8_scalar(codes, lut, n, m, k, out)
}

/// Dispatched LUT gather-accumulate scan over `u16` codes; see
/// [`crate::kernels::lut_scan_u16`] for the contract.
#[inline]
pub(crate) fn lut_scan_u16(
    codes: &[u16],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    debug_assert!(k >= 1 && codes.len() == m * n && lut.len() == m * k && out.len() >= n);
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `lut_scan_u8`.
        return unsafe { avx2::lut_scan_u16(codes, lut, n, m, k, out) };
    }
    lut_scan_u16_scalar(codes, lut, n, m, k, out)
}

/// Portable reference LUT scan over `u8` codes: probe `i`'s score is the
/// sum over subspaces `s` of `lut[s·k + codes[s·n + i]]`, accumulated in
/// increasing `s` with a single chain per probe (the AVX2 kernel keeps one
/// probe per lane, so its per-probe rounding sequence is identical).
/// Indices are clamped to `k − 1` — hostile codes degrade scores, never
/// memory safety.
#[inline]
pub(crate) fn lut_scan_u8_scalar(
    codes: &[u8],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    for i in 0..n {
        let mut acc = 0.0;
        for s in 0..m {
            acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
        }
        out[i] = acc;
    }
}

/// Portable reference LUT scan over `u16` codes (same scheme as the `u8`
/// variant).
#[inline]
pub(crate) fn lut_scan_u16_scalar(
    codes: &[u16],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    for i in 0..n {
        let mut acc = 0.0;
        for s in 0..m {
            acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
        }
        out[i] = acc;
    }
}

/// Portable reference inner product (four independent accumulators).
#[inline]
pub(crate) fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Portable four-row inner product: row `r`'s four accumulators play the
/// role of [`dot_scalar`]'s `s0..s3`, fed in the same order, so each value
/// is bit-identical to `dot_scalar(q, rows[r])`; the four rows share every
/// query load. Rows must be as long as `q`.
#[inline]
pub(crate) fn dot4_scalar(q: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
    let n = q.len();
    let rows = [&rows[0][..n], &rows[1][..n], &rows[2][..n], &rows[3][..n]];
    let chunks = n / 4;
    // acc[r][i] is row r's s_i.
    let mut acc = [[0.0f64; 4]; 4];
    for c in 0..chunks {
        let j = c * 4;
        let qc = [q[j], q[j + 1], q[j + 2], q[j + 3]];
        for (acc, row) in acc.iter_mut().zip(&rows) {
            for i in 0..4 {
                acc[i] += qc[i] * row[j + i];
            }
        }
    }
    let mut tail = [0.0f64; 4];
    for j in chunks * 4..n {
        for (tail, row) in tail.iter_mut().zip(&rows) {
            *tail += q[j] * row[j];
        }
    }
    let mut out = [0.0; 4];
    for r in 0..4 {
        let s = acc[r];
        out[r] = (s[0] + s[1]) + (s[2] + s[3]) + tail[r];
    }
    out
}

/// Portable reference squared distance (same accumulator scheme as `dot`).
#[inline]
pub(crate) fn dist_sq_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        tail += d * d;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Portable nearest-centroid search: one centroid at a time, in index
/// order, replacing the best only on a strictly smaller distance.
#[inline]
pub(crate) fn nearest_centroid_scalar(point: &[f64], cols: &[f64]) -> (usize, f64) {
    match point.len() {
        1 => nearest_centroid_w::<1>(point, cols),
        2 => nearest_centroid_w::<2>(point, cols),
        3 => nearest_centroid_w::<3>(point, cols),
        _ => nearest_centroid_w::<4>(point, cols),
    }
}

/// [`nearest_centroid_scalar`] for a point of `W` coordinates: each
/// distance is `(d0² + d1²) + (d2² + d3²)` with `d_j² = 0` for `j ≥ W`
/// (rows `j ≥ W` of `cols` are never read).
#[inline(always)]
fn nearest_centroid_w<const W: usize>(point: &[f64], cols: &[f64]) -> (usize, f64) {
    let k = cols.len() / 4;
    let p: [f64; 4] = std::array::from_fn(|j| if j < W { point[j] } else { 0.0 });
    let rows: [&[f64]; 4] = std::array::from_fn(|j| if j < W { &cols[j * k..][..k] } else { &[] });
    let sq = |j: usize, c: usize| {
        if j < W {
            let d = p[j] - rows[j][c];
            d * d
        } else {
            0.0
        }
    };
    let (mut best, mut best_d) = (0, f64::INFINITY);
    for c in 0..k {
        let d = (sq(0, c) + sq(1, c)) + (sq(2, c) + sq(3, c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Portable reference `a += s·b` (elementwise; order-independent).
#[inline]
pub(crate) fn axpy_scalar(s: f64, b: &[f64], a: &mut [f64]) {
    let n = a.len().min(b.len());
    for j in 0..n {
        a[j] += s * b[j];
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_blendv_pd, _mm256_cmp_pd,
        _mm256_cvtsd_f64, _mm256_hadd_pd, _mm256_i32gather_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_or_pd, _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm_cvtepu16_epi32, _mm_cvtepu8_epi32,
        _mm_cvtsi32_si128, _mm_cvtsi64_si128, _mm_min_epi32, _mm_set1_epi32, _CMP_EQ_OQ,
        _CMP_LT_OQ,
    };

    /// Reduces the 4-lane accumulator exactly like the scalar kernels:
    /// `(s0 + s1) + (s2 + s3)`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn reduce(acc: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// AVX2 inner product, bit-identical to [`super::dot_scalar`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            // Unaligned loads: callers pass arbitrary sub-slices. Separate
            // mul + add (no FMA) keeps the per-lane rounding sequence equal
            // to the scalar kernel's.
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
        let mut tail = 0.0;
        for j in chunks * 4..n {
            tail += a[j] * b[j];
        }
        reduce(acc) + tail
    }

    /// AVX2 four-row inner product, bit-identical row by row to
    /// [`dot`]: one 4-lane accumulator per row, each fed exactly as `dot`
    /// feeds its own, sharing every query load. The four reductions run
    /// side by side — `hadd` forms every row's `s0 + s1` and `s2 + s3`,
    /// one add joins them — then each row's tail is added.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that every row is at
    /// least as long as `q`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4(q: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
        let n = q.len();
        let (r0, r1, r2, r3) = (&rows[0][..n], &rows[1][..n], &rows[2][..n], &rows[3][..n]);
        let chunks = n / 4;
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            let qv = _mm256_loadu_pd(q.as_ptr().add(j));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(qv, _mm256_loadu_pd(r0.as_ptr().add(j))));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(qv, _mm256_loadu_pd(r1.as_ptr().add(j))));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(qv, _mm256_loadu_pd(r2.as_ptr().add(j))));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(qv, _mm256_loadu_pd(r3.as_ptr().add(j))));
        }
        // h01 = [a0₀+a0₁, a1₀+a1₁, a0₂+a0₃, a1₂+a1₃], h23 likewise; the
        // 128-bit halves then line up as [rowᵣ's s0+s1] and [rowᵣ's s2+s3].
        let h01 = _mm256_hadd_pd(a0, a1);
        let h23 = _mm256_hadd_pd(a2, a3);
        let sums = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(h01, h23),
            _mm256_permute2f128_pd::<0x31>(h01, h23),
        );
        // Four independent tail chains, each in `dot`'s order. Scalars, not
        // an array: a `[f64; 4]` of tails compiled to one serial chain of
        // lane blends and made the 50-d kernel about 1.6× slower.
        let (mut t0, mut t1, mut t2, mut t3) = (0.0, 0.0, 0.0, 0.0);
        for j in chunks * 4..n {
            t0 += q[j] * r0[j];
            t1 += q[j] * r1[j];
            t2 += q[j] * r2[j];
            t3 += q[j] * r3[j];
        }
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), _mm256_add_pd(sums, _mm256_set_pd(t3, t2, t1, t0)));
        out
    }

    /// AVX2 squared distance, bit-identical to [`super::dist_sq_scalar`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            let d = _mm256_sub_pd(av, bv);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        let mut tail = 0.0;
        for j in chunks * 4..n {
            let d = a[j] - b[j];
            tail += d * d;
        }
        reduce(acc) + tail
    }

    /// AVX2 nearest-centroid search, bit-identical to
    /// [`super::nearest_centroid_scalar`] (index and distance).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `cols` holds at
    /// least `4·k` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nearest_centroid(point: &[f64], cols: &[f64], k: usize) -> (usize, f64) {
        match point.len() {
            1 => nearest_centroid_w::<1>(point, cols, k),
            2 => nearest_centroid_w::<2>(point, cols, k),
            3 => nearest_centroid_w::<3>(point, cols, k),
            _ => nearest_centroid_w::<4>(point, cols, k),
        }
    }

    /// [`nearest_centroid`] for a point of `W` coordinates. Eight centroids
    /// per step: chain A takes centroids `8s..8s+4`, chain B `8s+4..8s+8`,
    /// one per lane, so each lane sees its centroids in increasing order
    /// and keeps the first of its smallest distances (strict `<`). Two
    /// chains keep two compare → blend sequences in flight. The eight
    /// (distance, index) lane bests then reduce to the smallest distance at
    /// the smallest index, and the `k mod 8` tail is scanned in order, so
    /// the result is the scalar loop's first minimum.
    ///
    /// # Safety
    /// As in [`nearest_centroid`] (the point's first `W` coordinates are read,
    /// bounds-checked).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn nearest_centroid_w<const W: usize>(
        point: &[f64],
        cols: &[f64],
        k: usize,
    ) -> (usize, f64) {
        let zero = _mm256_setzero_pd();
        let p: [__m256d; 4] =
            std::array::from_fn(|j| if j < W { _mm256_set1_pd(point[j]) } else { zero });
        let base = cols.as_ptr();
        // Squared distances of four centroids from `c` on: `(d0² + d1²) +
        // (d2² + d3²)` per lane, rows `j ≥ W` replaced by an exact zero.
        let dist = |c: usize| {
            let sq = |j: usize| {
                if j < W {
                    let d = _mm256_sub_pd(p[j], _mm256_loadu_pd(base.add(j * k + c)));
                    _mm256_mul_pd(d, d)
                } else {
                    zero
                }
            };
            _mm256_add_pd(_mm256_add_pd(sq(0), sq(1)), _mm256_add_pd(sq(2), sq(3)))
        };
        let inf = _mm256_set1_pd(f64::INFINITY);
        let (mut best_a, mut best_b) = (inf, inf);
        let (mut at_a, mut at_b) = (zero, zero);
        let mut ids_a = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let mut ids_b = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);
        let step = _mm256_set1_pd(8.0);
        let full = k / 8 * 8;
        for c in (0..full).step_by(8) {
            let da = dist(c);
            let db = dist(c + 4);
            let lt_a = _mm256_cmp_pd::<_CMP_LT_OQ>(da, best_a);
            let lt_b = _mm256_cmp_pd::<_CMP_LT_OQ>(db, best_b);
            best_a = _mm256_blendv_pd(best_a, da, lt_a);
            best_b = _mm256_blendv_pd(best_b, db, lt_b);
            at_a = _mm256_blendv_pd(at_a, ids_a, lt_a);
            at_b = _mm256_blendv_pd(at_b, ids_b, lt_b);
            ids_a = _mm256_add_pd(ids_a, step);
            ids_b = _mm256_add_pd(ids_b, step);
        }
        // Lane bests pair up — chain B into A, then the upper half into the
        // lower, then lane 1 into lane 0 — keeping the smaller distance and,
        // on a tie, the smaller index.
        let (d, at) = first_min(best_a, at_a, best_b, at_b);
        let (d, at) = first_min(d, at, _mm256_permute2f128_pd::<1>(d, d), {
            _mm256_permute2f128_pd::<1>(at, at)
        });
        let (d, at) =
            first_min(d, at, _mm256_permute_pd::<0b0101>(d), _mm256_permute_pd::<0b0101>(at));
        let (mut best_d, mut best) = (_mm256_cvtsd_f64(d), _mm256_cvtsd_f64(at) as usize);
        for c in full..k {
            let mut lanes = [0.0f64; 4];
            for (j, lane) in lanes.iter_mut().enumerate().take(W) {
                let d = point[j] - cols[j * k + c];
                *lane = d * d;
            }
            let d = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// Lane by lane, the (distance, index) pair of `(d0, i0)` and `(d1, i1)`
    /// with the smaller distance, or on equal distances the smaller index.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn first_min(d0: __m256d, i0: __m256d, d1: __m256d, i1: __m256d) -> (__m256d, __m256d) {
        let tie =
            _mm256_and_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(d1, d0), _mm256_cmp_pd::<_CMP_LT_OQ>(i1, i0));
        let take = _mm256_or_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(d1, d0), tie);
        (_mm256_blendv_pd(d0, d1, take), _mm256_blendv_pd(i0, i1, take))
    }

    /// Loads four consecutive `u8` codes as clamped 32-bit gather indices
    /// (one 32-bit load + byte unpack, instead of four scalar loads).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `ptr` points at
    /// four readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn idx4_u8(ptr: *const u8, clamp: __m128i) -> __m128i {
        let packed = _mm_cvtsi32_si128(ptr.cast::<i32>().read_unaligned());
        _mm_min_epi32(_mm_cvtepu8_epi32(packed), clamp)
    }

    /// Loads four consecutive `u16` codes as clamped 32-bit gather indices.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `ptr` points at
    /// four readable `u16`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn idx4_u16(ptr: *const u16, clamp: __m128i) -> __m128i {
        let packed = _mm_cvtsi64_si128(ptr.cast::<i64>().read_unaligned());
        _mm_min_epi32(_mm_cvtepu16_epi32(packed), clamp)
    }

    /// AVX2 LUT scan over `u8` codes, bit-identical to
    /// [`super::lut_scan_u8_scalar`]: sixteen probes per iteration, one
    /// probe per lane across four *independent* accumulator vectors, each
    /// lane accumulating `lut[s·k + code]` in increasing subspace order —
    /// the same single-chain rounding sequence per probe as the scalar
    /// kernel (independent chains never mix, so parallelism changes no
    /// value). Four chains in flight hide the multi-cycle gather latency
    /// that a single chain would serialize on. Indices are clamped to
    /// `k − 1` before the gather so the read stays inside `lut` for any
    /// code value.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, `codes.len() == m·n`,
    /// `lut.len() == m·k`, `out.len() >= n` and `k >= 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_scan_u8(
        codes: &[u8],
        lut: &[f64],
        n: usize,
        m: usize,
        k: usize,
        out: &mut [f64],
    ) {
        let clamp = _mm_set1_epi32(k as i32 - 1);
        let mut i = 0;
        while i + 16 <= n {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for s in 0..m {
                let base = codes.as_ptr().add(s * n + i);
                let table = lut.as_ptr().add(s * k);
                a0 = _mm256_add_pd(a0, _mm256_i32gather_pd::<8>(table, idx4_u8(base, clamp)));
                a1 =
                    _mm256_add_pd(a1, _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(4), clamp)));
                a2 =
                    _mm256_add_pd(a2, _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(8), clamp)));
                a3 = _mm256_add_pd(
                    a3,
                    _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(12), clamp)),
                );
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), a1);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 8), a2);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for s in 0..m {
                let idx = idx4_u8(codes.as_ptr().add(s * n + i), clamp);
                acc = _mm256_add_pd(acc, _mm256_i32gather_pd::<8>(lut.as_ptr().add(s * k), idx));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            i += 4;
        }
        for i in i..n {
            let mut acc = 0.0;
            for s in 0..m {
                acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
            }
            out[i] = acc;
        }
    }

    /// AVX2 LUT scan over `u16` codes, bit-identical to
    /// [`super::lut_scan_u16_scalar`] (same scheme as the `u8` variant:
    /// sixteen probes per iteration over four independent chains).
    ///
    /// # Safety
    /// As in [`lut_scan_u8`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_scan_u16(
        codes: &[u16],
        lut: &[f64],
        n: usize,
        m: usize,
        k: usize,
        out: &mut [f64],
    ) {
        let clamp = _mm_set1_epi32(k as i32 - 1);
        let mut i = 0;
        while i + 16 <= n {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for s in 0..m {
                let base = codes.as_ptr().add(s * n + i);
                let table = lut.as_ptr().add(s * k);
                a0 = _mm256_add_pd(a0, _mm256_i32gather_pd::<8>(table, idx4_u16(base, clamp)));
                a1 = _mm256_add_pd(
                    a1,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(4), clamp)),
                );
                a2 = _mm256_add_pd(
                    a2,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(8), clamp)),
                );
                a3 = _mm256_add_pd(
                    a3,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(12), clamp)),
                );
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), a1);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 8), a2);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for s in 0..m {
                let idx = idx4_u16(codes.as_ptr().add(s * n + i), clamp);
                acc = _mm256_add_pd(acc, _mm256_i32gather_pd::<8>(lut.as_ptr().add(s * k), idx));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            i += 4;
        }
        for i in i..n {
            let mut acc = 0.0;
            for s in 0..m {
                acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
            }
            out[i] = acc;
        }
    }

    /// AVX2 `a += s·b`, bit-identical to [`super::axpy_scalar`]
    /// (elementwise, so only the mul/add split matters).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        let sv = _mm256_set1_pd(s);
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            let sum = _mm256_add_pd(av, _mm256_mul_pd(sv, bv));
            _mm256_storeu_pd(a.as_mut_ptr().add(j), sum);
        }
        for j in chunks * 4..n {
            a[j] += s * b[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that observe or override the global ISA state
    /// (every kernel result is ISA-independent, but the state itself isn't).
    static ISA_LOCK: Mutex<()> = Mutex::new(());

    fn isa_guard() -> std::sync::MutexGuard<'static, ()> {
        ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deterministic pseudo-random doubles in roughly [-2, 2] with varied
    /// exponents (splitmix64 bits mapped to a dense range).
    fn pseudo(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                (x as f64 / u64::MAX as f64) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn force_isa_env_var_overrides_detection() {
        let _g = isa_guard();
        // Start from whatever state other tests left behind, and reset to
        // "unknown" so detect() runs again, now under the env var.
        let prev = active();
        std::env::set_var("LEMP_FORCE_ISA", "scalar");
        ACTIVE.store(ISA_UNKNOWN, Ordering::Relaxed);
        assert_eq!(active(), Isa::Scalar, "env override must beat autodetection");
        // Unknown values fall back to autodetection.
        std::env::set_var("LEMP_FORCE_ISA", "quantum");
        ACTIVE.store(ISA_UNKNOWN, Ordering::Relaxed);
        let auto = active();
        assert_eq!(auto == Isa::Avx2, avx2_supported());
        std::env::remove_var("LEMP_FORCE_ISA");
        override_isa(prev);
    }

    #[test]
    fn detection_is_cached_and_stable() {
        let _g = isa_guard();
        let first = active();
        let second = active();
        assert_eq!(first, second);
        if std::env::var("LEMP_FORCE_ISA").as_deref() == Ok("scalar") {
            assert_eq!(first, Isa::Scalar);
        } else if cfg!(target_arch = "x86_64") && avx2_supported() {
            assert_eq!(first, Isa::Avx2);
        } else {
            assert_eq!(first, Isa::Scalar);
        }
    }

    #[test]
    fn override_restores() {
        let _g = isa_guard();
        let prev = override_isa(Isa::Scalar);
        assert_eq!(active(), Isa::Scalar);
        override_isa(prev);
        assert_eq!(active(), prev);
    }

    #[test]
    fn avx2_dot_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return; // nothing to compare on this machine
        }
        for n in 0..130 {
            let a = pseudo(2 * n as u64 + 1, n);
            let b = pseudo(2 * n as u64 + 2, n);
            let scalar = dot_scalar(&a, &b);
            // SAFETY: guarded by `avx2_supported` above.
            let simd = unsafe { avx2::dot(&a, &b) };
            assert_eq!(scalar.to_bits(), simd.to_bits(), "n={n}: {scalar} vs {simd}");
        }
    }

    #[test]
    fn avx2_dist_sq_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        for n in 0..130 {
            let a = pseudo(1000 + n as u64, n);
            let b = pseudo(2000 + n as u64, n);
            let scalar = dist_sq_scalar(&a, &b);
            // SAFETY: guarded by `avx2_supported` above.
            let simd = unsafe { avx2::dist_sq(&a, &b) };
            assert_eq!(scalar.to_bits(), simd.to_bits(), "n={n}");
        }
    }

    #[test]
    fn avx2_axpy_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        for n in 0..130 {
            let b = pseudo(3000 + n as u64, n);
            let mut a_scalar = pseudo(4000 + n as u64, n);
            let mut a_simd = a_scalar.clone();
            axpy_scalar(0.37, &b, &mut a_scalar);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::axpy(0.37, &b, &mut a_simd) };
            for j in 0..n {
                assert_eq!(a_scalar[j].to_bits(), a_simd[j].to_bits(), "n={n} j={j}");
            }
        }
    }

    /// Deterministic pseudo-random code indices in `[0, k)`.
    fn pseudo_codes(seed: u64, n: usize, k: usize) -> Vec<u8> {
        pseudo(seed, n).iter().map(|x| (((x + 2.0) / 4.0) * k as f64) as u8 % k as u8).collect()
    }

    #[test]
    fn avx2_lut_scan_u8_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        let (m, k) = (5, 7);
        let lut = pseudo(99, m * k);
        for n in 0..130 {
            let codes = pseudo_codes(5000 + n as u64, m * n, k);
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u8(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn avx2_lut_scan_u16_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        let (m, k) = (3, 300); // k > 256 exercises the wide-code range
        let lut = pseudo(77, m * k);
        for n in 0..130 {
            let codes: Vec<u16> = pseudo(6000 + n as u64, m * n)
                .iter()
                .map(|x| (((x + 2.0) / 4.0) * k as f64) as u16 % k as u16)
                .collect();
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            lut_scan_u16_scalar(&codes, &lut, n, m, k, &mut want);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u16(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn lut_scan_clamps_hostile_codes_on_both_paths() {
        let (n, m, k) = (9, 2, 3);
        let codes = vec![255u8; m * n]; // far beyond k − 1
        let lut = pseudo(11, m * k);
        let mut want = vec![0.0; n];
        lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
        let expect = lut[k - 1] + lut[k + k - 1];
        for v in &want {
            assert_eq!(v.to_bits(), expect.to_bits());
        }
        if avx2_supported() {
            let mut got = vec![0.0; n];
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u8(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "i={i}");
            }
        }
    }

    #[test]
    fn dispatched_lut_scan_matches_scalar_regardless_of_isa() {
        let _g = isa_guard();
        let (n, m, k) = (53, 4, 9);
        let codes = pseudo_codes(21, m * n, k);
        let lut = pseudo(22, m * k);
        let mut want = vec![0.0; n];
        lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            let mut got = vec![0.0; n];
            lut_scan_u8(&codes, &lut, n, m, k, &mut got);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{isa:?} i={i}");
            }
            override_isa(prev);
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_regardless_of_isa() {
        let _g = isa_guard();
        let a = pseudo(7, 53);
        let b = pseudo(8, 53);
        let want_dot = dot_scalar(&a, &b);
        let want_dist = dist_sq_scalar(&a, &b);
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            assert_eq!(dot(&a, &b).to_bits(), want_dot.to_bits(), "{isa:?}");
            assert_eq!(dist_sq(&a, &b).to_bits(), want_dist.to_bits(), "{isa:?}");
            for (r, v) in dot4(&a, [&b, &a, &b, &a]).into_iter().enumerate() {
                let want = if r % 2 == 0 { want_dot } else { dot_scalar(&a, &a) };
                assert_eq!(v.to_bits(), want.to_bits(), "{isa:?} row {r}");
            }
            override_isa(prev);
        }
    }

    /// The search `nearest_centroid` replaces: `dist_sq_scalar` of the
    /// point against each centroid (row-major, `w` coordinates), first
    /// minimum on strict `<`.
    fn nearest_reference(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
        let (mut best, mut best_d) = (0, f64::INFINITY);
        for (c, cent) in centroids.iter().enumerate() {
            let d = dist_sq_scalar(point, &cent[..point.len()]);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// `centroids` transposed into 4 rows of `k`; rows `j ≥ w` hold
    /// `padding`, which the search must ignore.
    fn transpose(centroids: &[Vec<f64>], w: usize, padding: f64) -> Vec<f64> {
        let k = centroids.len();
        let mut cols = vec![padding; 4 * k];
        for (c, cent) in centroids.iter().enumerate() {
            for j in 0..w {
                cols[j * k + c] = cent[j];
            }
        }
        cols
    }

    fn assert_nearest_matches(point: &[f64], centroids: &[Vec<f64>], ctx: &str) {
        let want = nearest_reference(point, centroids);
        for padding in [0.0, 1e300, -7.5] {
            let cols = transpose(centroids, point.len(), padding);
            let scalar = nearest_centroid_scalar(point, &cols);
            let got = crate::kernels::nearest_centroid(point, &cols);
            for (path, (at, d)) in [("scalar", scalar), ("dispatched", got)] {
                assert_eq!(at, want.0, "{ctx}, padding {padding}: {path} index");
                assert_eq!(d.to_bits(), want.1.to_bits(), "{ctx}, padding {padding}: {path} dist");
            }
        }
    }

    #[test]
    fn nearest_centroid_is_the_first_minimum_of_dist_sq_on_both_isas() {
        let _g = isa_guard();
        let mut ks: Vec<usize> = (1..=20).collect();
        ks.extend([255, 256, 257]);
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            for &k in &ks {
                for w in 1..=4 {
                    let seed = (k * 8 + w) as u64;
                    let vals = pseudo(seed, 4 * k + 4);
                    let mut centroids: Vec<Vec<f64>> =
                        vals.chunks_exact(4).take(k).map(<[f64]>::to_vec).collect();
                    let point = vals[4 * k..4 * k + w].to_vec();
                    let ctx = format!("{isa:?} k={k} w={w}");
                    assert_nearest_matches(&point, &centroids, &ctx);
                    // The point on a centroid: distance exactly 0 there.
                    let on = centroids[k / 2].clone();
                    assert_nearest_matches(&on[..w], &centroids, &format!("{ctx}, on a centroid"));
                    // Duplicate centroids: ties resolve to the first copy,
                    // whichever lane or chain holds it.
                    for c in 0..k {
                        centroids[c] = centroids[(c * 7) % k.min(5)].clone();
                    }
                    assert_nearest_matches(&point, &centroids, &format!("{ctx}, duplicates"));
                    // Every centroid equal: index 0, on every lane.
                    let same = vec![centroids[0].clone(); k];
                    assert_nearest_matches(&point, &same, &format!("{ctx}, all equal"));
                    // ±0.0 in the point and the centroids.
                    let signed: Vec<Vec<f64>> = (0..k)
                        .map(|c| {
                            (0..4).map(|j| if (c + j) % 2 == 0 { 0.0 } else { -0.0 }).collect()
                        })
                        .collect();
                    assert_nearest_matches(&[-0.0; 4][..w], &signed, &format!("{ctx}, ±0.0"));
                }
            }
            override_isa(prev);
        }
    }

    #[test]
    fn nearest_centroid_of_an_empty_codebook_is_index_zero_at_infinity() {
        assert_eq!(crate::kernels::nearest_centroid(&[1.0, 2.0], &[]), (0, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "1 to 4 coordinates")]
    fn nearest_centroid_rejects_wide_points() {
        crate::kernels::nearest_centroid(&[0.0; 5], &[0.0; 8]);
    }

    /// Checks every value `kernels::dot_rows` emits against `dot_scalar`,
    /// in row order, for `q` against `rows` gathered by `lids`.
    fn assert_dot_rows_match(q: &[f64], rows: &[Vec<f64>], lids: &[usize], ctx: &str) {
        let mut got = Vec::new();
        crate::kernels::dot_rows(q, lids.iter().map(|&l| (l, rows[l].as_slice())), |l, v| {
            got.push((l, v.to_bits()))
        });
        let want: Vec<(usize, u64)> =
            lids.iter().map(|&l| (l, dot_scalar(q, &rows[l]).to_bits())).collect();
        assert_eq!(got, want, "{ctx} lids={lids:?}");
    }

    #[test]
    fn dot4_is_bit_identical_to_dot_for_every_length_on_both_isas() {
        let _g = isa_guard();
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            for n in 0..=130 {
                let q = pseudo(7000 + n as u64, n);
                let rows: Vec<Vec<f64>> =
                    (0..6).map(|r| pseudo(8000 + 10 * n as u64 + r, n)).collect();
                // One full group, gathered out of order with a repeat.
                let group = [&rows[4][..], &rows[1][..], &rows[4][..], &rows[0][..]];
                let want = group.map(|r| dot_scalar(&q, r).to_bits());
                assert_eq!(dot4(&q, group).map(f64::to_bits), want, "{isa:?} n={n}");
                assert_eq!(dot4_scalar(&q, group).map(f64::to_bits), want, "n={n}");
                #[cfg(target_arch = "x86_64")]
                if avx2_supported() {
                    // SAFETY: guarded by `avx2_supported`; rows are n long.
                    let simd = unsafe { avx2::dot4(&q, group) };
                    assert_eq!(simd.map(f64::to_bits), want, "avx2 n={n}");
                }
                // Lists of 0..=9 rows: whole groups plus trailing groups of
                // one to three rows, out of order and with repeats.
                let order = [5, 2, 2, 0, 4, 1, 3, 5, 0];
                for len in 0..=order.len() {
                    let ctx = format!("{isa:?} n={n}");
                    assert_dot_rows_match(&q, &rows, &order[..len], &ctx);
                }
            }
            override_isa(prev);
        }
    }

    #[test]
    fn dot_rows_falls_back_to_dot_for_rows_of_another_length() {
        let q = pseudo(1, 12);
        let rows = vec![pseudo(2, 12), pseudo(3, 9), pseudo(4, 15), pseudo(5, 12)];
        assert_dot_rows_match(&q, &rows, &[0, 1, 2, 3, 1], "mixed lengths");
    }

    #[test]
    fn short_vectors_stay_on_the_scalar_path() {
        // Below MIN_SIMD_LEN the dispatcher must not call into AVX2; this
        // is observable only indirectly, so just pin the correctness.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(dist_sq(&a, &b), 27.0);
    }

    #[test]
    fn special_values_flow_through_identically() {
        let _g = isa_guard();
        let a = [f64::INFINITY, -0.0, 1e-308, f64::MAX, 1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [0.5, 7.0, 1e-10, 2.0, -1.0, 0.0, f64::MIN_POSITIVE, -4.0, 9.0];
        // Signed zeros, subnormals, infinities of both signs, and NaN (one
        // NaN source per row, so the propagated payload is well defined).
        let zeros = [-0.0; 9];
        let subnormal = [5e-324, -5e-324, 1e-320, 0.0, -1e-310, 2.0, -0.0, 4e-323, 1.0];
        let infs = [1.0, f64::NEG_INFINITY, 0.5, -1.0, f64::INFINITY, 2.0, 1.0, -3.0, 0.25];
        let nan = [1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN, 7.0, 8.0, 9.0];
        let rows: [&[f64]; 6] = [&b, &zeros, &subnormal, &infs, &nan, &a];
        for (r, row) in rows.iter().enumerate() {
            let want = dot_scalar(&a, row);
            if avx2_supported() {
                // SAFETY: guarded by `avx2_supported`.
                let simd = unsafe { avx2::dot(&a, row) };
                assert_eq!(want.to_bits(), simd.to_bits(), "dot row {r}");
            }
        }
        for group in [[0, 1, 2, 3], [4, 5, 0, 4], [3, 2, 1, 0]] {
            let group = group.map(|r| rows[r]);
            let want = group.map(|r| dot_scalar(&a, r).to_bits());
            assert_eq!(dot4_scalar(&a, group).map(f64::to_bits), want);
            for isa in [Isa::Scalar, Isa::Avx2] {
                if isa == Isa::Avx2 && !avx2_supported() {
                    continue;
                }
                let prev = override_isa(isa);
                assert_eq!(dot4(&a, group).map(f64::to_bits), want, "{isa:?}");
                override_isa(prev);
            }
        }
    }
}
