//! Hot numeric kernels: inner products, norms, normalization.
//!
//! These are the innermost loops of every algorithm in the workspace (the
//! paper estimates ~100 ns per inner product on its hardware; everything else
//! is pruning work to avoid calling these). The portable implementations are
//! straight-line slice code with manually unrolled independent accumulators
//! so that rustc auto-vectorizes them; the reducing kernels (`dot`,
//! `dot_rows`, `dist_sq`, `nearest_centroid`) and `axpy` additionally
//! dispatch at runtime to the explicit AVX2 versions in [`crate::simd`],
//! which produce **bit-identical** results (same per-lane operation order,
//! no FMA) — enabling SIMD never changes a single produced value anywhere
//! in the workspace.
//!
//! [`dot_rows`] is the batched form of [`dot`] for one query against many
//! rows (a candidate list to verify): four rows per kernel call, each value
//! bit-identical to `dot` of its row, delivered in row order.

use crate::simd;

/// Inner product `a · b` of two equally long slices.
///
/// Uses four independent accumulators so the floating-point reduction does
/// not serialize on a single dependency chain (enables SIMD + pipelining);
/// dispatches to the bit-identical AVX2 kernel when available.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used (callers in this workspace always pass
/// equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    simd::dot(a, b)
}

/// Inner products of one query `q` with a sequence of rows, handed to
/// `emit(tag, q · row)` in sequence order — the verification step's kernel,
/// where every surviving candidate costs one exact inner product.
///
/// Rows go through a four-row kernel: four independent 4-lane accumulators
/// (one per row) share each load of `q`, so four dependency chains are in
/// flight where [`dot`] has one. Every value is **bit-identical** to
/// `dot(q, row)` on every dispatch path (same per-lane order, separate
/// multiply and add, the same `(s0 + s1) + (s2 + s3) + tail` reduction),
/// and values arrive in the order of `rows`; batching changes no result and
/// no order, only speed. A trailing group of one to three rows fills the
/// kernel with copies of its first row and drops their values; a group with
/// a row whose length differs from `q`'s goes through `dot` row by row.
/// Rows may come from anywhere, out of order or repeated; `tag` (a local
/// id, say) is passed through with each value.
#[inline]
pub fn dot_rows<'a, T: Copy>(
    q: &[f64],
    rows: impl IntoIterator<Item = (T, &'a [f64])>,
    mut emit: impl FnMut(T, f64),
) {
    let mut rows = rows.into_iter();
    while let Some(first) = rows.next() {
        let mut group = [first; 4];
        let mut len = 1;
        for slot in &mut group[1..] {
            let Some(next) = rows.next() else { break };
            *slot = next;
            len += 1;
        }
        let values = simd::dot4(q, group.map(|(_, row)| row));
        for (&(tag, _), value) in group[..len].iter().zip(values) {
            emit(tag, value);
        }
        if len < 4 {
            break;
        }
    }
}

/// Squared Euclidean norm `‖v‖²`.
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    dot(v, v)
}

/// Euclidean norm `‖v‖`.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    norm_sq(v).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    simd::dist_sq(a, b)
}

/// Euclidean distance `‖a − b‖`.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Scales `v` in place by `s`.
#[inline]
pub fn scale(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// Normalizes `v` in place to unit length and returns its original length.
///
/// A zero vector is left untouched and `0.0` is returned; callers treat
/// zero-length vectors as never matching (their inner product with anything
/// is 0, which is below any positive threshold).
#[inline]
pub fn normalize(v: &mut [f64]) -> f64 {
    let len = norm(v);
    if len > 0.0 {
        scale(v, 1.0 / len);
    }
    len
}

/// `out = a + s·b` (vector add with scale), used by the SGD trainer.
#[inline]
pub fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    simd::axpy(s, b, a);
}

/// LUT gather-accumulate scan over `u8` code indices — the scoring kernel
/// of the quantized bucket representation.
///
/// `codes` holds `m` subspace rows of `n` probe codes each, subspace-major
/// (`codes[s·n + i]` is probe `i`'s code in subspace `s`); `lut` holds `m`
/// rows of `k` table entries (`lut[s·k + c]` is the query's inner product
/// with centroid `c` of subspace `s`). Probe `i`'s approximate score,
/// written to `out[i]`, is the sum of its `m` table entries, accumulated in
/// increasing subspace order. Dispatches to a bit-identical AVX2 gather
/// kernel (four probes per iteration, one per lane) when available.
///
/// Code values `≥ k` are clamped to `k − 1` on every path — hostile codes
/// degrade scores, never memory safety.
///
/// # Panics
/// If `k == 0`, `codes.len() != m·n`, `lut.len() != m·k` or `out.len() < n`.
#[inline]
pub fn lut_scan_u8(codes: &[u8], lut: &[f64], n: usize, m: usize, k: usize, out: &mut [f64]) {
    assert!(k >= 1, "lut_scan: k must be positive");
    assert_eq!(codes.len(), m * n, "lut_scan: codes must hold m·n entries");
    assert_eq!(lut.len(), m * k, "lut_scan: lut must hold m·k entries");
    assert!(out.len() >= n, "lut_scan: out must hold n scores");
    simd::lut_scan_u8(codes, lut, n, m, k, out);
}

/// LUT gather-accumulate scan over `u16` code indices (codebooks wider than
/// 256 centroids); same contract as [`lut_scan_u8`].
///
/// # Panics
/// As in [`lut_scan_u8`].
#[inline]
pub fn lut_scan_u16(codes: &[u16], lut: &[f64], n: usize, m: usize, k: usize, out: &mut [f64]) {
    assert!(k >= 1, "lut_scan: k must be positive");
    assert_eq!(codes.len(), m * n, "lut_scan: codes must hold m·n entries");
    assert_eq!(lut.len(), m * k, "lut_scan: lut must hold m·k entries");
    assert!(out.len() >= n, "lut_scan: out must hold n scores");
    simd::lut_scan_u16(codes, lut, n, m, k, out);
}

/// Nearest centroid of one quantization subspace: the index and squared
/// distance of the **first** centroid at the smallest `‖point − c‖²`.
///
/// `point` has `w = point.len()` coordinates (1 to 4). `cols` holds the
/// subspace's `k = cols.len() / 4` centroids transposed into 4 rows of `k`
/// (`cols[j·k + c]` is coordinate `j` of centroid `c`); rows `j ≥ w` are
/// padding and never read. Each distance is rounded as `(d0² + d1²) +
/// (d2² + d3²)` with `d_j² = 0` for `j ≥ w` — bit-identical to
/// [`dist_sq`] of the `w` coordinates — and ties go to the smaller index,
/// as in a scan that replaces its best only on a strictly smaller
/// distance. `k = 0` gives `(0, ∞)`. Dispatches to a bit-identical AVX2
/// kernel (eight centroids per step in two 4-lane chains) when available.
///
/// # Panics
/// If `point` has no or more than 4 coordinates, or `cols.len()` is not a
/// multiple of 4.
#[inline]
pub fn nearest_centroid(point: &[f64], cols: &[f64]) -> (usize, f64) {
    assert!((1..=4).contains(&point.len()), "nearest_centroid: point must have 1 to 4 coordinates");
    assert!(cols.len().is_multiple_of(4), "nearest_centroid: cols must hold 4 rows of k");
    simd::nearest_centroid(point, cols)
}

/// Cosine of the angle between `a` and `b`; 0 if either vector is zero.
#[inline]
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn dot_matches_reference_for_all_tail_lengths() {
        // Exercise every `n mod 4` branch of the unrolled loop.
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            approx(dot(&a, &b), expect);
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        approx(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        approx(norm(&[3.0, 4.0]), 5.0);
        approx(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn dist_and_dist_sq_agree() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        approx(dist_sq(&a, &b), 25.0);
        approx(dist(&a, &b), 5.0);
    }

    #[test]
    fn normalize_returns_length_and_unit_result() {
        let mut v = vec![3.0, 0.0, 4.0];
        let len = normalize(&mut v);
        approx(len, 5.0);
        approx(norm(&v), 1.0);
        approx(v[0], 0.6);
        approx(v[2], 0.8);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0];
        approx(normalize(&mut v), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut a);
        assert_eq!(a, vec![7.0, -1.0]);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        approx(cosine(&[1.0, 0.0], &[5.0, 0.0]), 1.0);
        approx(cosine(&[1.0, 0.0], &[0.0, 2.0]), 0.0);
        approx(cosine(&[1.0, 0.0], &[-3.0, 0.0]), -1.0);
        approx(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn lut_scan_sums_one_table_entry_per_subspace() {
        // 2 subspaces, 4 centroids, 3 probes; scores follow by hand.
        let lut = [10.0, 20.0, 30.0, 40.0, 1.0, 2.0, 3.0, 4.0];
        let codes = [0u8, 3, 1, /* subspace 1 */ 2, 0, 3];
        let mut out = [0.0; 3];
        lut_scan_u8(&codes, &lut, 3, 2, 4, &mut out);
        assert_eq!(out, [13.0, 41.0, 24.0]);
        let codes16: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
        let mut out16 = [0.0; 3];
        lut_scan_u16(&codes16, &lut, 3, 2, 4, &mut out16);
        assert_eq!(out16, [13.0, 41.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "codes must hold")]
    fn lut_scan_rejects_misshapen_codes() {
        let mut out = [0.0; 2];
        lut_scan_u8(&[0u8; 3], &[0.0; 4], 2, 2, 2, &mut out);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(&mut v, -3.0);
        assert_eq!(v, vec![-3.0, 6.0]);
    }
}
