//! Dense matrix kernels used by the interior-point solvers.
//!
//! Only the operations the solvers need are implemented: symmetric rank updates,
//! Cholesky factorization with diagonal regularization, and triangular solves.
//! Matrices are stored row-major in a flat `Vec<f64>`.
//!
//! # Kernel layout and the blocked factorization
//!
//! The hot path of the block-angular interior-point solver factorizes hundreds
//! of symmetric positive-definite Newton blocks per iteration (343 matrices of
//! size 343 × 343 in the paper's full-tree regime).  Two kernel families are
//! provided:
//!
//! * **Blocked (default).**  [`DenseMatrix::cholesky_in_place`] runs a
//!   *right-looking blocked* factorization
//!   ([`DenseMatrix::cholesky_in_place_blocked`]): the matrix is processed in
//!   column panels of width `nb` (default [`DEFAULT_CHOLESKY_BLOCK`]).  For each
//!   panel the diagonal block is factorized in place, the rows below it are
//!   solved against the panel's transposed triangle, and the trailing submatrix
//!   receives a symmetric rank-`nb` update.  Because the storage is row-major,
//!   every inner loop is a dot product or AXPY over *contiguous* row slices of
//!   length ≤ `nb`, which keeps the panel resident in L1 and lets the compiler
//!   vectorize; the dot kernel additionally uses four independent accumulators
//!   to break the floating-point add dependency chain.  Only the lower triangle
//!   is read and written, so callers may assemble just the lower triangle (see
//!   [`DenseMatrix::add_scaled_outer_sparse_lower`]).
//! * **Reference.**  [`DenseMatrix::cholesky_in_place_unblocked`] is the
//!   textbook left-looking scalar kernel the crate shipped with originally.  It
//!   is kept verbatim as the measurable baseline for the perf-gated benchmarks
//!   and as the oracle for the blocked-vs-scalar property tests.
//!
//! Both variants perform the same regularized factorization; they differ only
//! in the order floating-point operations are accumulated, so their factors
//! agree to machine-precision rounding (asserted by property tests below).
//!
//! Triangular solves come in the shapes the solvers run: one right-hand side
//! in place ([`DenseMatrix::cholesky_solve_into`]), whose forward and
//! backward substitutions both read the row-major factor by contiguous rows,
//! and the reference path's per-column multi-RHS solve
//! ([`DenseMatrix::cholesky_solve_matrix_per_column`]).

use crate::LpError;
use serde::{Deserialize, Serialize};

/// Default column-panel width of the blocked Cholesky factorization.
///
/// 64 columns × 8 bytes = 512 bytes per row panel: a handful of cache lines,
/// small enough that the panel rows of both operands of the trailing update
/// stay L1-resident, large enough to amortize the loop overhead.  The blocked
/// interior-point kernels factorize at this width.
pub const DEFAULT_CHOLESKY_BLOCK: usize = 64;

/// Dot product with four independent accumulators.
///
/// Sequential summation chains every add through the previous one and caps the
/// kernel at one FLOP per add-latency; four-way accumulation exposes
/// instruction-level parallelism (and is the reason blocked and unblocked
/// factors differ by rounding only, not bitwise).
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let tail: f64 = chunks_a
        .remainder()
        .iter()
        .zip(chunks_b.remainder())
        .map(|(x, y)| x * y)
        .sum();
    (s0 + s1) + (s2 + s3) + tail
}

/// Magnitudes below this are flushed to exact zero by the blocked kernels.
///
/// `FLUSH_THRESHOLD² ≈ 1e-308` is the smallest normal `f64`: any product of
/// two flushed-scale values underflows to (sub)normal noise ≥ 300 orders of
/// magnitude below the solver's regularization floor, so zeroing them cannot
/// move a result.  What it does do is keep *subnormal* values out of the inner
/// loops — triangular factors of strongly diagonally dominant Newton matrices
/// decay geometrically below the band, and once entries underflow into the
/// subnormal range every multiply takes the CPU's microcoded assist path
/// (~100 cycles instead of ~4), which measurably dominated the K = 343
/// full-tree solve before flushing.
pub const FLUSH_THRESHOLD: f64 = 1e-154;

/// `v`, or exact zero when `|v|` is below [`FLUSH_THRESHOLD`].
#[inline]
fn flush_subnormalish(v: f64) -> f64 {
    if v.abs() < FLUSH_THRESHOLD {
        0.0
    } else {
        v
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from nested rows (all rows must have equal length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Overwrite every entry with `value` (used to recycle workspace matrices
    /// across interior-point iterations instead of reallocating).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Multiply by a vector: `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            out[i] = dot(self.row(i), x);
        }
        out
    }

    /// Add `alpha · v vᵀ` restricted to the index set `idx`: for all pairs
    /// `(a, b)` of positions in `idx`, `self[idx[a], idx[b]] += alpha · v[a] · v[b]`.
    ///
    /// This is the kernel that accumulates `Gᵀ D G` from sparse constraint rows.
    pub fn add_scaled_outer_sparse(&mut self, idx: &[usize], v: &[f64], alpha: f64) {
        debug_assert_eq!(idx.len(), v.len());
        for (a, &ia) in idx.iter().enumerate() {
            let va = alpha * v[a];
            let row_start = ia * self.cols;
            for (b, &ib) in idx.iter().enumerate() {
                self.data[row_start + ib] += va * v[b];
            }
        }
    }

    /// Lower-triangle-only variant of [`DenseMatrix::add_scaled_outer_sparse`]:
    /// entries with row < column are left untouched.
    ///
    /// The Cholesky kernels read and write only the lower triangle, so a matrix
    /// destined for factorization can skip the mirrored upper-triangle stores.
    pub fn add_scaled_outer_sparse_lower(&mut self, idx: &[usize], v: &[f64], alpha: f64) {
        debug_assert_eq!(idx.len(), v.len());
        for (a, &ia) in idx.iter().enumerate() {
            let va = alpha * v[a];
            let row_start = ia * self.cols;
            for (b, &ib) in idx.iter().enumerate() {
                if ib <= ia {
                    self.data[row_start + ib] += va * v[b];
                }
            }
        }
    }

    /// Add `value` to the diagonal entry `i`.
    pub fn add_diagonal(&mut self, i: usize, value: f64) {
        let c = self.cols;
        self.data[i * c + i] += value;
    }

    /// In-place Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix; the lower triangle of `self` is overwritten with `L`.
    ///
    /// Delegates to [`DenseMatrix::cholesky_in_place_blocked`] with the default
    /// panel width [`DEFAULT_CHOLESKY_BLOCK`].  Only the lower triangle is read;
    /// the upper triangle is ignored and left untouched.
    ///
    /// A small diagonal regularization `reg` is added on the fly whenever a pivot
    /// falls below `reg` to keep the factorization stable on nearly singular
    /// systems (common in the late interior-point iterations).
    pub fn cholesky_in_place(&mut self, reg: f64) -> Result<(), LpError> {
        self.cholesky_in_place_blocked(reg, DEFAULT_CHOLESKY_BLOCK)
    }

    /// Blocked right-looking Cholesky factorization with panel width `nb`.
    ///
    /// For each column panel `[k0, k1)` (width ≤ `nb`):
    /// 1. **Panel factorization** — the diagonal block `A[k0..k1, k0..k1]` is
    ///    factorized with the scalar left-looking kernel (its trailing updates
    ///    from previous panels have already been applied).
    /// 2. **Panel solve** — rows below the panel are solved against `L11ᵀ`:
    ///    `L21 = A21 · L11⁻ᵀ` by forward substitution across the panel columns.
    /// 3. **Trailing update** — the lower triangle of the trailing submatrix
    ///    receives the symmetric rank-`nb` update `A22 −= L21 · L21ᵀ`, computed
    ///    as contiguous length-`nb` row dot products.
    ///
    /// With `nb ≥ n` this degenerates to a single panel factorization and
    /// performs the same operations as the unblocked reference kernel.
    /// Regularization semantics match [`DenseMatrix::cholesky_in_place_unblocked`].
    ///
    /// Strictly-below-diagonal factor entries with magnitude under
    /// [`FLUSH_THRESHOLD`] are flushed to exact zero (see the constant's docs:
    /// numerically inert, keeps subnormals out of every downstream solve).
    /// Diagonal entries are never flushed.
    pub fn cholesky_in_place_blocked(&mut self, reg: f64, nb: usize) -> Result<(), LpError> {
        assert_eq!(self.rows, self.cols, "Cholesky needs a square matrix");
        let n = self.rows;
        let nb = nb.max(1);
        let mut panel_row = vec![0.0; nb];
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + nb).min(n);
            // 1. Factor the diagonal block in place (left-looking within panel).
            for j in k0..k1 {
                let rj = j * self.cols;
                let mut d = self.data[rj + j]
                    - dot(&self.data[rj + k0..rj + j], &self.data[rj + k0..rj + j]);
                if d.is_nan() {
                    return Err(LpError::NumericalFailure(format!(
                        "NaN pivot at column {j}"
                    )));
                }
                if d < reg || !d.is_finite() {
                    d = reg.max(1e-300);
                }
                let d = d.sqrt();
                self.data[rj + j] = d;
                for i in (j + 1)..k1 {
                    let ri = i * self.cols;
                    let s = dot(&self.data[ri + k0..ri + j], &self.data[rj + k0..rj + j]);
                    self.data[ri + j] = flush_subnormalish((self.data[ri + j] - s) / d);
                }
            }
            // 2. Solve the rows below the panel: L21 · L11ᵀ = A21.
            for i in k1..n {
                let ri = i * self.cols;
                for j in k0..k1 {
                    let rj = j * self.cols;
                    let s = dot(&self.data[ri + k0..ri + j], &self.data[rj + k0..rj + j]);
                    self.data[ri + j] =
                        flush_subnormalish((self.data[ri + j] - s) / self.data[rj + j]);
                }
            }
            // 3. Symmetric rank-nb trailing update of the lower triangle.
            let width = k1 - k0;
            for i in k1..n {
                let ri = i * self.cols;
                panel_row[..width].copy_from_slice(&self.data[ri + k0..ri + k1]);
                let (before, current) = self.data.split_at_mut(ri);
                for j in k1..i {
                    let rj = j * self.cols;
                    current[j] -= dot(&panel_row[..width], &before[rj + k0..rj + k1]);
                }
                current[i] -= dot(&panel_row[..width], &panel_row[..width]);
            }
            k0 = k1;
        }
        Ok(())
    }

    /// Reference scalar Cholesky factorization (textbook left-looking kernel).
    ///
    /// This is the exact pre-blocking implementation, kept as the baseline for
    /// the perf-gated `cholesky_factorize` benchmarks and as the oracle of the
    /// blocked-vs-scalar property tests.  Semantics (regularization, NaN
    /// handling, lower-triangle-only access) are identical to the blocked
    /// kernel; results agree to floating-point rounding.
    pub fn cholesky_in_place_unblocked(&mut self, reg: f64) -> Result<(), LpError> {
        assert_eq!(self.rows, self.cols, "Cholesky needs a square matrix");
        let n = self.rows;
        for j in 0..n {
            // Diagonal element.
            let mut d = self[(j, j)];
            for k in 0..j {
                let l = self[(j, k)];
                d -= l * l;
            }
            if d.is_nan() {
                return Err(LpError::NumericalFailure(format!(
                    "NaN pivot at column {j}"
                )));
            }
            if d < reg || !d.is_finite() {
                d = reg.max(1e-300);
            }
            let d = d.sqrt();
            self[(j, j)] = d;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                // v -= dot(L[i, :j], L[j, :j])
                let (ri, rj) = (i * self.cols, j * self.cols);
                for k in 0..j {
                    v -= self.data[ri + k] * self.data[rj + k];
                }
                self[(i, j)] = v / d;
            }
        }
        Ok(())
    }

    /// Solve `L Lᵀ x = b` where `self` holds the Cholesky factor `L` in its lower
    /// triangle (as produced by [`DenseMatrix::cholesky_in_place`]).
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.cholesky_solve_into(&mut y);
        y
    }

    /// In-place variant of [`DenseMatrix::cholesky_solve`]: `b` is overwritten
    /// with the solution, no allocation.
    pub fn cholesky_solve_into(&self, b: &mut [f64]) {
        self.forward_solve(b);
        self.backward_solve(b);
    }

    /// Forward-substitute `L y = b` in place: row `i` of `L` is read
    /// contiguously, `y_i = (b_i − L[i, ..i]·y[..i]) / L_ii`.
    pub fn forward_solve(&self, b: &mut [f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        for i in 0..self.rows {
            let ri = i * self.cols;
            let s = dot(&self.data[ri..ri + i], &b[..i]);
            b[i] = (b[i] - s) / self.data[ri + i];
        }
    }

    /// Back-substitute `Lᵀ x = y` in place.
    ///
    /// Column `i` of `Lᵀ` is row `i` of `L`, so the column-oriented form of
    /// the substitution reads the row-major factor contiguously, like
    /// [`DenseMatrix::forward_solve`]: from the last row up,
    /// `x_i = b_i / L_ii`, then `b[..i] −= L[i, ..i]·x_i` as one axpy.
    pub fn backward_solve(&self, b: &mut [f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        for i in (0..self.rows).rev() {
            let ri = i * self.cols;
            let xi = b[i] / self.data[ri + i];
            b[i] = xi;
            for (v, &l) in b[..i].iter_mut().zip(&self.data[ri..ri + i]) {
                *v -= l * xi;
            }
        }
    }

    /// Multi-RHS solve for the columns of `rhs` (`rhs` has `self.rows()`
    /// rows): extract every column into a scratch `Vec`, solve it, scatter it
    /// back.  The reference kernels use it to form `M_b⁻¹ E_bᵀ`.
    pub fn cholesky_solve_matrix_per_column(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(rhs.rows, self.rows);
        let mut out = DenseMatrix::zeros(rhs.rows, rhs.cols);
        let mut col = vec![0.0; rhs.rows];
        for j in 0..rhs.cols {
            for i in 0..rhs.rows {
                col[i] = rhs[(i, j)];
            }
            let sol = self.cholesky_solve(&col);
            for i in 0..rhs.rows {
                out[(i, j)] = sol[i];
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Random SPD matrix `A = BᵀB + I` of size `n` built from `n²` seed values.
    fn random_spd(seed_vals: &[f64], n: usize) -> DenseMatrix {
        assert_eq!(seed_vals.len(), n * n);
        let mut a = DenseMatrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    v += seed_vals[k * n + i] * seed_vals[k * n + j];
                }
                a[(i, j)] += v;
            }
        }
        a
    }

    #[test]
    fn identity_solve_is_identity() {
        let mut eye = DenseMatrix::identity(4);
        eye.cholesky_in_place(1e-12).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = eye.cholesky_solve(&b);
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn known_spd_system() {
        // A = [[4, 2], [2, 3]], b = [6, 5]  ⇒  x = [1, 1]
        let mut a = DenseMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        a.cholesky_in_place(1e-14).unwrap();
        let x = a.cholesky_solve(&[6.0, 5.0]);
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 4.0]]);
        let y = a.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![6.0, 3.0]);
    }

    #[test]
    fn sparse_outer_update_accumulates() {
        let mut m = DenseMatrix::zeros(4, 4);
        m.add_scaled_outer_sparse(&[1, 3], &[2.0, -1.0], 0.5);
        assert!((m[(1, 1)] - 2.0).abs() < 1e-12);
        assert!((m[(1, 3)] + 1.0).abs() < 1e-12);
        assert!((m[(3, 1)] + 1.0).abs() < 1e-12);
        assert!((m[(3, 3)] - 0.5).abs() < 1e-12);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn lower_outer_update_skips_upper_triangle() {
        let mut full = DenseMatrix::zeros(4, 4);
        let mut lower = DenseMatrix::zeros(4, 4);
        full.add_scaled_outer_sparse(&[3, 1], &[2.0, -1.0], 0.5);
        lower.add_scaled_outer_sparse_lower(&[3, 1], &[2.0, -1.0], 0.5);
        for i in 0..4 {
            for j in 0..4 {
                if j <= i {
                    assert_eq!(lower[(i, j)], full[(i, j)], "lower entry ({i},{j})");
                } else {
                    assert_eq!(lower[(i, j)], 0.0, "upper entry ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn multi_rhs_solve() {
        let mut a = DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 8.0]]);
        a.cholesky_in_place(1e-14).unwrap();
        let rhs = DenseMatrix::from_rows(&[vec![2.0, 4.0], vec![8.0, 16.0]]);
        let x = a.cholesky_solve_matrix_per_column(&rhs);
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 1)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_handles_tiny_panels_and_degenerate_sizes() {
        for &(n, nb) in &[
            (1usize, 1usize),
            (1, 64),
            (5, 1),
            (5, 2),
            (5, 5),
            (5, 64),
            (0, 4),
        ] {
            let seeds: Vec<f64> = (0..n * n)
                .map(|i| ((i * 13 + 1) % 17) as f64 / 8.0 - 1.0)
                .collect();
            let a = random_spd(&seeds, n);
            let mut blocked = a.clone();
            blocked.cholesky_in_place_blocked(1e-12, nb).unwrap();
            let mut reference = a.clone();
            reference.cholesky_in_place_unblocked(1e-12).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (blocked[(i, j)] - reference[(i, j)]).abs() < 1e-10,
                        "n={n} nb={nb} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_factorization_ignores_upper_triangle() {
        // Assemble only the lower triangle, poison the upper one: the factor and
        // solve must be unaffected.
        let seeds: Vec<f64> = (0..36)
            .map(|i| ((i * 5 + 2) % 13) as f64 / 6.0 - 1.0)
            .collect();
        let a = random_spd(&seeds, 6);
        let mut poisoned = a.clone();
        for i in 0..6 {
            for j in (i + 1)..6 {
                poisoned[(i, j)] = f64::NAN;
            }
        }
        let mut clean_f = a.clone();
        clean_f.cholesky_in_place(1e-12).unwrap();
        poisoned.cholesky_in_place(1e-12).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.25];
        let x_clean = clean_f.cholesky_solve(&b);
        let x_poisoned = poisoned.cholesky_solve(&b);
        for (a, b) in x_clean.iter().zip(x_poisoned.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The textbook scalar substitutions on a factor `L`: forward by row
    /// sums, backward by walking column `i` of `L` with stride `n`.
    fn scalar_cholesky_solve(l: &DenseMatrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = b.to_vec();
        for i in 0..n {
            let mut v = y[i];
            for k in 0..i {
                v -= l[(i, k)] * y[k];
            }
            y[i] = v / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut v = y[i];
            for k in (i + 1)..n {
                v -= l[(k, i)] * y[k];
            }
            y[i] = v / l[(i, i)];
        }
        y
    }

    proptest! {
        /// Cholesky solve inverts A·x for randomly generated SPD matrices A = BᵀB + I.
        #[test]
        fn prop_cholesky_solves_spd(seed_vals in proptest::collection::vec(-2.0f64..2.0, 9),
                                    x_true in proptest::collection::vec(-5.0f64..5.0, 3)) {
            let a = random_spd(&seed_vals, 3);
            let rhs = a.mul_vec(&x_true);
            let mut f = a.clone();
            f.cholesky_in_place(1e-12).unwrap();
            let x = f.cholesky_solve(&rhs);
            for i in 0..3 {
                prop_assert!((x[i] - x_true[i]).abs() < 1e-6);
            }
        }

        /// The row-contiguous substitutions of `cholesky_solve_into` match the
        /// scalar ones on the unblocked factor of a random SPD matrix, and on
        /// the same factor with some below-diagonal entries flushed to exact
        /// zero, as the blocked kernels leave them.  `n = 0` is the empty
        /// solve.
        #[test]
        fn prop_cholesky_solve_into_matches_scalar_solve(
            n in 0usize..=12,
            seed_vals in proptest::collection::vec(-2.0f64..2.0, 144),
            rhs in proptest::collection::vec(-5.0f64..5.0, 12),
            flush_every in 2usize..5,
        ) {
            let mut l = random_spd(&seed_vals[..n * n], n);
            l.cholesky_in_place_unblocked(1e-12).unwrap();
            let mut flushed = l.clone();
            for i in 0..n {
                for j in 0..i {
                    if (i + j) % flush_every == 0 {
                        flushed[(i, j)] = 0.0;
                    }
                }
            }
            for factor in [&l, &flushed] {
                let expected = scalar_cholesky_solve(factor, &rhs[..n]);
                let mut got = rhs[..n].to_vec();
                factor.cholesky_solve_into(&mut got);
                for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                    prop_assert!(
                        (g - e).abs() <= 1e-9 * (1.0 + e.abs()),
                        "n={} entry {}: {} vs {}", n, i, g, e
                    );
                }
            }
        }

        /// Blocked and unblocked Cholesky produce the same factor (up to
        /// accumulation-order rounding) on random SPD matrices, across panel
        /// widths that exercise every edge: nb = 1 (rank-1 outer product),
        /// nb < n, nb = n, and nb > n (single panel = scalar kernel).
        #[test]
        fn prop_blocked_cholesky_matches_scalar(
            seed_vals in proptest::collection::vec(-2.0f64..2.0, 49),
            nb in 1usize..10,
        ) {
            let a = random_spd(&seed_vals, 7);
            let mut blocked = a.clone();
            blocked.cholesky_in_place_blocked(1e-12, nb).unwrap();
            let mut reference = a.clone();
            reference.cholesky_in_place_unblocked(1e-12).unwrap();
            for i in 0..7 {
                for j in 0..=i {
                    let (x, y) = (blocked[(i, j)], reference[(i, j)]);
                    prop_assert!(
                        (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                        "nb={} entry ({},{}): {} vs {}", nb, i, j, x, y
                    );
                }
            }
        }
    }
}
