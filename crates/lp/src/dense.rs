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
//!
//! # Lane-batched kernels
//!
//! The block-angular solver's Newton blocks come in runs of one shape (K
//! per-column blocks of size K in the obfuscation LP), so the blocked
//! strategy factors, inverts and solves `L` of them per pass.  Their
//! matrices are stored interleaved: entry `(i, j)` of matrix `l` is
//! `a[(i·n + j)·L + l]`, so the `L` copies of one entry are one lane vector
//! and every scalar step of [`DenseMatrix::cholesky_in_place_blocked`], of
//! [`DenseMatrix::cholesky_solve_into`] and of the per-block Schur kernel
//! becomes one `L`-wide operation on contiguous memory.
//!
//! Each kernel has one generic body over a lane vector (`cholesky_lanes`,
//! `cholesky_solve_lanes`, `schur_panel_lanes`).  It is compiled for plain
//! `f64` lanes and, on x86_64, inside `#[target_feature]` wrappers for AVX2
//! and AVX-512F registers, chosen at run time by what the CPU reports.  The
//! lane vectors use the intrinsics directly, because the autovectorized
//! form of the same body shuffled lanes across registers.
//!
//! Every lane is bit-identical to the scalar kernel on its own matrix:
//! - the dot products keep their four accumulators per lane and the same
//!   tail order;
//! - a zero-multiplier skip of the scalar kernel becomes a per-lane select
//!   (a skipped update is not always bit-neutral: `v − 0·∞` is NaN),
//!   and the whole update is skipped only when every lane would skip it;
//! - the flush and the `d < reg` pivot rule apply per lane, and a NaN pivot
//!   reports the first failing lane's first NaN column;
//! - Rust never contracts `a·b + c` into a fused multiply-add, so every
//!   instruction set rounds each operation as scalar code does.

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
/// factors differ by rounding only, not bitwise).  The tail is summed in
/// order from −0.0, the neutral element of `+` (−0.0 + p is p, x + −0.0 is
/// x), so the result does not depend on which zero a library sum starts
/// from.
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
    let mut tail = -0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
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

    /// Every entry, row-major.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
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
            // 3. Symmetric rank-nb trailing update of the lower triangle.  Row
            //    `i`'s panel and the entries it updates are disjoint slices of
            //    the row, so the kernel allocates nothing.
            for i in k1..n {
                let ri = i * self.cols;
                let (before, current) = self.data.split_at_mut(ri);
                let (head, trailing) = current.split_at_mut(k1);
                let panel = &head[k0..k1];
                for j in k1..i {
                    let rj = j * self.cols;
                    trailing[j - k1] -= dot(panel, &before[rj + k0..rj + k1]);
                }
                trailing[i - k1] -= dot(panel, panel);
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

// ---------------------------------------------------------------------------
// Lane-batched kernels: L same-shaped matrices per SIMD pass.
// ---------------------------------------------------------------------------

/// Lanes of a group of several blocks; a lone block runs at 1 lane.
pub(crate) const MAX_LANES: usize = 8;

/// Instruction set a lane kernel is compiled for, one the CPU runs.  Every
/// instruction set runs the same generic body ([`LaneKernel::run`]); only
/// the registers that hold the lanes differ.  Rust never contracts `a * b +
/// c` into a fused multiply-add, so each rounds every operation as scalar
/// code does.
///
/// The kind is private, so an `Isa` comes only from [`Isa::supported`],
/// which checks the CPU: [`Isa::run`] relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(IsaKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaKind {
    /// Plain `f64` lanes, for any target.
    Baseline,
    /// AVX2: four lanes per register.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F: eight lanes per register.  On a 2-vCPU AVX-512 Xeon the
    /// serial level-2 δ = 17 forest ran 13% faster than with the same
    /// kernels on two AVX2 registers, nearly all of it in the Schur panel
    /// kernel.
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Isa {
    /// Every instruction set this CPU runs, baseline first.
    pub(crate) fn supported() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa(IsaKind::Baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                isas.push(Isa(IsaKind::Avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                isas.push(Isa(IsaKind::Avx512f));
            }
        }
        isas
    }

    /// The widest instruction set this CPU runs.
    pub(crate) fn detect() -> Isa {
        *Self::supported()
            .last()
            .expect("the baseline is always supported")
    }

    /// Run `kernel` on a group of `lanes` blocks (1 or [`MAX_LANES`]), in
    /// the registers of this instruction set.
    pub(crate) fn run<K: LaneKernel>(self, lanes: usize, kernel: K) -> K::Output {
        match (self.0, lanes) {
            (_, 1) => kernel.run::<f64>(),
            (IsaKind::Baseline, MAX_LANES) => kernel.run::<Pair<Pair<Pair<f64>>>>(),
            // SAFETY (both arms): `Isa::supported` makes these kinds only
            // when the CPU reports the feature.
            #[cfg(target_arch = "x86_64")]
            (IsaKind::Avx2, MAX_LANES) => unsafe { x86::run_avx2::<K, Pair<x86::F64x4>>(kernel) },
            #[cfg(target_arch = "x86_64")]
            (IsaKind::Avx512f, MAX_LANES) => unsafe { x86::run_avx512f::<K, x86::F64x8>(kernel) },
            _ => unreachable!("a lane group has 1 or {MAX_LANES} lanes, not {lanes}"),
        }
    }
}

/// A kernel over one lane group, with one generic body for every lane
/// vector.
///
/// `run` and everything it calls must be `#[inline(always)]`: the body is
/// compiled for an instruction set only where it is inlined into that
/// instruction set's wrapper.
pub(crate) trait LaneKernel {
    /// What the kernel returns.
    type Output;
    /// Run the kernel with lanes held in `V`.
    fn run<V: Vector>(self) -> Self::Output;
}

/// `LANES` lanes of `f64`, one per block of a group, and the lane-wise
/// operations the kernels need.  Every operation rounds each lane exactly
/// as the scalar `f64` operation does.
///
/// Lane vectors live in flat `f64` slices: `load` reads `s[..LANES]` and
/// `store` writes it.
pub(crate) trait Vector: Copy {
    /// Lanes per vector.
    const LANES: usize;
    /// One flag per lane.
    type Mask: Copy;
    fn load(s: &[f64]) -> Self;
    fn store(self, s: &mut [f64]);
    fn splat(x: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// Lanes equal to zero (either sign).
    fn zero(self) -> Self::Mask;
    fn and(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// Whether every lane is set.
    fn all(m: Self::Mask) -> bool;
    /// `old` in the lanes of `keep`, `new` elsewhere.
    fn select(keep: Self::Mask, old: Self, new: Self) -> Self;
    /// [`flush_subnormalish`] in every lane.
    fn flush(self) -> Self;
}

impl Vector for f64 {
    const LANES: usize = 1;
    type Mask = bool;
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        s[0]
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        s[0] = self;
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self / o
    }
    #[inline(always)]
    fn zero(self) -> bool {
        self == 0.0
    }
    #[inline(always)]
    fn and(a: bool, b: bool) -> bool {
        a && b
    }
    #[inline(always)]
    fn all(m: bool) -> bool {
        m
    }
    #[inline(always)]
    fn select(keep: bool, old: Self, new: Self) -> Self {
        if keep {
            old
        } else {
            new
        }
    }
    #[inline(always)]
    fn flush(self) -> Self {
        flush_subnormalish(self)
    }
}

/// Two vectors side by side: lanes `0..V::LANES` in the first.
#[derive(Clone, Copy)]
pub(crate) struct Pair<V>(V, V);

impl<V: Vector> Vector for Pair<V> {
    const LANES: usize = 2 * V::LANES;
    type Mask = (V::Mask, V::Mask);
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        Pair(V::load(s), V::load(&s[V::LANES..]))
    }
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        self.0.store(s);
        self.1.store(&mut s[V::LANES..]);
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Pair(V::splat(x), V::splat(x))
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Pair(self.0.add(o.0), self.1.add(o.1))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Pair(self.0.sub(o.0), self.1.sub(o.1))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Pair(self.0.mul(o.0), self.1.mul(o.1))
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        Pair(self.0.div(o.0), self.1.div(o.1))
    }
    #[inline(always)]
    fn zero(self) -> Self::Mask {
        (self.0.zero(), self.1.zero())
    }
    #[inline(always)]
    fn and(a: Self::Mask, b: Self::Mask) -> Self::Mask {
        (V::and(a.0, b.0), V::and(a.1, b.1))
    }
    #[inline(always)]
    fn all(m: Self::Mask) -> bool {
        V::all(m.0) && V::all(m.1)
    }
    #[inline(always)]
    fn select(keep: Self::Mask, old: Self, new: Self) -> Self {
        Pair(
            V::select(keep.0, old.0, new.0),
            V::select(keep.1, old.1, new.1),
        )
    }
    #[inline(always)]
    fn flush(self) -> Self {
        Pair(self.0.flush(), self.1.flush())
    }
}

/// The x86_64 lane vectors and the wrappers that compile a kernel for them.
///
/// A value of [`x86::F64x4`] or [`x86::F64x8`] exists only inside a kernel
/// that [`Isa::run`] entered through the matching wrapper, after the CPU
/// reported the feature; that is what makes their intrinsics sound.  Their
/// `load`, `splat` and other operations are safe functions that run AVX
/// instructions, so nothing outside a [`x86::run_avx2`] or
/// [`x86::run_avx512f`] call may construct either type: the module is
/// private to keep it so.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{LaneKernel, Vector, FLUSH_THRESHOLD};
    use std::arch::x86_64::*;

    /// `kernel` compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2<K: LaneKernel, V: Vector>(kernel: K) -> K::Output {
        kernel.run::<V>()
    }

    /// `kernel` compiled with AVX-512F.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run_avx512f<K: LaneKernel, V: Vector>(kernel: K) -> K::Output {
        kernel.run::<V>()
    }

    /// Four lanes in one AVX register.
    #[derive(Clone, Copy)]
    pub(crate) struct F64x4(__m256d);

    impl Vector for F64x4 {
        const LANES: usize = 4;
        /// All-ones or all-zeros per lane.
        type Mask = __m256d;
        #[inline(always)]
        fn load(s: &[f64]) -> Self {
            assert!(s.len() >= 4);
            // SAFETY: four readable lanes; AVX is enabled (see the module docs).
            Self(unsafe { _mm256_loadu_pd(s.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, s: &mut [f64]) {
            assert!(s.len() >= 4);
            // SAFETY: four writable lanes; AVX is enabled.
            unsafe { _mm256_storeu_pd(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn zero(self) -> __m256d {
            // SAFETY: AVX is enabled (see the module docs).
            unsafe { _mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, _mm256_setzero_pd()) }
        }
        #[inline(always)]
        fn and(a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: AVX is enabled (see the module docs).
            unsafe { _mm256_and_pd(a, b) }
        }
        #[inline(always)]
        fn all(m: __m256d) -> bool {
            // SAFETY: AVX is enabled (see the module docs).
            unsafe { _mm256_movemask_pd(m) == 0b1111 }
        }
        #[inline(always)]
        fn select(keep: __m256d, old: Self, new: Self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            Self(unsafe { _mm256_blendv_pd(new.0, old.0, keep) })
        }
        #[inline(always)]
        fn flush(self) -> Self {
            // SAFETY: AVX is enabled (see the module docs).
            unsafe {
                let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0);
                let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(abs, _mm256_set1_pd(FLUSH_THRESHOLD));
                Self(_mm256_blendv_pd(self.0, _mm256_setzero_pd(), tiny))
            }
        }
    }

    /// Eight lanes in one AVX-512 register.
    #[derive(Clone, Copy)]
    pub(crate) struct F64x8(__m512d);

    impl Vector for F64x8 {
        const LANES: usize = 8;
        type Mask = __mmask8;
        #[inline(always)]
        fn load(s: &[f64]) -> Self {
            assert!(s.len() >= 8);
            // SAFETY: eight readable lanes; AVX-512F is enabled (see the
            // module docs).
            Self(unsafe { _mm512_loadu_pd(s.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, s: &mut [f64]) {
            assert!(s.len() >= 8);
            // SAFETY: eight writable lanes; AVX-512F is enabled.
            unsafe { _mm512_storeu_pd(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn zero(self) -> __mmask8 {
            // SAFETY: AVX-512F is enabled (see the module docs).
            unsafe { _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_pd()) }
        }
        #[inline(always)]
        fn and(a: __mmask8, b: __mmask8) -> __mmask8 {
            a & b
        }
        #[inline(always)]
        fn all(m: __mmask8) -> bool {
            m == 0xff
        }
        #[inline(always)]
        fn select(keep: __mmask8, old: Self, new: Self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            Self(unsafe { _mm512_mask_blend_pd(keep, new.0, old.0) })
        }
        #[inline(always)]
        fn flush(self) -> Self {
            // SAFETY: AVX-512F is enabled (see the module docs).
            unsafe {
                let abs = _mm512_abs_pd(self.0);
                let tiny = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(abs, _mm512_set1_pd(FLUSH_THRESHOLD));
                Self(_mm512_mask_blend_pd(tiny, self.0, _mm512_setzero_pd()))
            }
        }
    }
}

/// [`dot`] in every lane of the lane-interleaved vectors `a` and `b`: four
/// accumulators per lane over chunks of four entries, the tail summed in
/// order, combined as `(s0 + s1) + (s2 + s3) + tail`.  The scalar tail
/// starts at −0.0, the neutral element of `+`, so here the tail starts at
/// its first product and an empty tail adds nothing.
#[inline(always)]
fn dot_lanes<V: Vector>(a: &[f64], b: &[f64]) -> V {
    debug_assert_eq!(a.len(), b.len());
    let w = V::LANES;
    let body = a.len() / (4 * w) * (4 * w);
    let (head_a, tail_a) = a.split_at(body);
    let (head_b, tail_b) = b.split_at(body);
    let zero = V::splat(0.0);
    let (mut s0, mut s1, mut s2, mut s3) = (zero, zero, zero, zero);
    for (x, y) in head_a.chunks_exact(4 * w).zip(head_b.chunks_exact(4 * w)) {
        s0 = s0.add(V::load(x).mul(V::load(y)));
        s1 = s1.add(V::load(&x[w..]).mul(V::load(&y[w..])));
        s2 = s2.add(V::load(&x[2 * w..]).mul(V::load(&y[2 * w..])));
        s3 = s3.add(V::load(&x[3 * w..]).mul(V::load(&y[3 * w..])));
    }
    let out = s0.add(s1).add(s2.add(s3));
    if tail_a.is_empty() {
        return out;
    }
    let mut tail = V::load(tail_a).mul(V::load(tail_b));
    let mut k = w;
    while k < tail_a.len() {
        tail = tail.add(V::load(&tail_a[k..]).mul(V::load(&tail_b[k..])));
        k += w;
    }
    out.add(tail)
}

/// [`DenseMatrix::cholesky_in_place_blocked`] on `V::LANES` lane-interleaved
/// `n × n` matrices: entry `(i, j)` of matrix `l` is `a[(i·n + j)·LANES + l]`.
///
/// Each lane runs its matrix's scalar arithmetic in the same order.  A lane
/// whose pivot is NaN keeps going (its values no longer matter); the error
/// names the first NaN column of the lowest such lane, which is the error
/// the scalar kernel returns on the first failing matrix.
#[inline(always)]
pub(crate) fn cholesky_lanes<V: Vector>(
    a: &mut [f64],
    n: usize,
    nb: usize,
    reg: f64,
) -> Result<(), LpError> {
    let w = V::LANES;
    debug_assert_eq!(a.len(), n * n * w);
    let nb = nb.max(1);
    let mut nan_col = [usize::MAX; MAX_LANES];
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + nb).min(n);
        // 1. Factor the diagonal block in place (left-looking within panel).
        for j in k0..k1 {
            let rj = j * n;
            let row_j = &a[(rj + k0) * w..(rj + j) * w];
            let s: V = dot_lanes(row_j, row_j);
            let mut pivots = [0.0; MAX_LANES];
            V::load(&a[(rj + j) * w..]).sub(s).store(&mut pivots);
            for (d, first_nan) in pivots[..w].iter_mut().zip(&mut nan_col) {
                if d.is_nan() && *first_nan == usize::MAX {
                    *first_nan = j;
                }
                if *d < reg || !d.is_finite() {
                    *d = reg.max(1e-300);
                }
                *d = d.sqrt();
            }
            let d = V::load(&pivots);
            d.store(&mut a[(rj + j) * w..]);
            for i in (j + 1)..k1 {
                let ri = i * n;
                let s: V = dot_lanes(
                    &a[(ri + k0) * w..(ri + j) * w],
                    &a[(rj + k0) * w..(rj + j) * w],
                );
                let e = &mut a[(ri + j) * w..];
                V::load(e).sub(s).div(d).flush().store(e);
            }
        }
        // 2. Solve the rows below the panel: L21 · L11ᵀ = A21.
        for i in k1..n {
            let ri = i * n;
            for j in k0..k1 {
                let rj = j * n;
                let s: V = dot_lanes(
                    &a[(ri + k0) * w..(ri + j) * w],
                    &a[(rj + k0) * w..(rj + j) * w],
                );
                let d = V::load(&a[(rj + j) * w..]);
                let e = &mut a[(ri + j) * w..];
                V::load(e).sub(s).div(d).flush().store(e);
            }
        }
        // 3. Symmetric rank-nb trailing update of the lower triangle.
        for i in k1..n {
            let ri = i * n;
            let (before, current) = a.split_at_mut(ri * w);
            let (head, trailing) = current.split_at_mut(k1 * w);
            let panel = &head[k0 * w..];
            for j in k1..i {
                let rj = j * n;
                let s: V = dot_lanes(panel, &before[(rj + k0) * w..(rj + k1) * w]);
                let e = &mut trailing[(j - k1) * w..];
                V::load(e).sub(s).store(e);
            }
            let s: V = dot_lanes(panel, panel);
            let e = &mut trailing[(i - k1) * w..];
            V::load(e).sub(s).store(e);
        }
        k0 = k1;
    }
    match nan_col.iter().find(|&&j| j != usize::MAX) {
        Some(j) => Err(LpError::NumericalFailure(format!(
            "NaN pivot at column {j}"
        ))),
        None => Ok(()),
    }
}

/// [`DenseMatrix::cholesky_solve_into`] in every lane: `b[i·LANES + l]` is
/// entry `i` of lane `l`'s right-hand side, and `factor` holds the lanes'
/// `n × n` factors interleaved as in [`cholesky_lanes`].
#[inline(always)]
pub(crate) fn cholesky_solve_lanes<V: Vector>(factor: &[f64], n: usize, b: &mut [f64]) {
    let w = V::LANES;
    debug_assert_eq!(factor.len(), n * n * w);
    debug_assert_eq!(b.len(), n * w);
    for i in 0..n {
        let ri = i * n;
        let (solved, rest) = b.split_at_mut(i * w);
        let s: V = dot_lanes(&factor[ri * w..(ri + i) * w], solved);
        let d = V::load(&factor[(ri + i) * w..]);
        V::load(rest).sub(s).div(d).store(rest);
    }
    for i in (0..n).rev() {
        let ri = i * n;
        let (head, rest) = b.split_at_mut(i * w);
        let xi = V::load(rest).div(V::load(&factor[(ri + i) * w..]));
        xi.store(rest);
        for (v, l) in head
            .chunks_exact_mut(w)
            .zip(factor[ri * w..(ri + i) * w].chunks_exact(w))
        {
            V::load(v).sub(V::load(l).mul(xi)).store(v);
        }
    }
}

/// The Schur contribution `XᵀX`, `X = L⁻¹B`, of `V::LANES` lane-interleaved
/// blocks whose coupling matrices `B` share one pattern (the interior-point
/// module's `CouplingBlock`): `m` columns ordered by first nonzero, the
/// columns started by local row `i` a prefix of length `started[i]`, and
/// rows above `top` all zero.
///
/// On entry rows `top..n` of `x` (`n × m` lane vectors) hold `B`; on exit
/// they hold `X`, and `s_local` (`m × m` lane vectors) holds the lower
/// triangle of `XᵀX`.  Each lane repeats the per-block scalar kernel: the
/// same groups of four rows, the same expression order, the flush after each
/// row's division.  Where the scalar kernel skips an update because its
/// multipliers are zero, a lane with zero multipliers keeps its old value (a
/// skipped update is not always bit-neutral: `v − 0·∞` is NaN); the
/// update is skipped outright only when every lane would skip it.
#[inline(always)]
pub(crate) fn schur_panel_lanes<V: Vector>(
    factor: &[f64],
    n: usize,
    m: usize,
    started: &[usize],
    top: usize,
    x: &mut [f64],
    s_local: &mut [f64],
) {
    let w = V::LANES;
    let stride = m * w;
    debug_assert_eq!(x.len(), n * stride);
    debug_assert_eq!(s_local.len(), m * stride);
    let all_zero = |v: [V; 4]| {
        V::and(
            V::and(v[0].zero(), v[1].zero()),
            V::and(v[2].zero(), v[3].zero()),
        )
    };
    for i in top..n {
        let (solved, rest) = x.split_at_mut(i * stride);
        let xi = &mut rest[..stride];
        let li = &factor[i * n * w..(i * n + i + 1) * w];
        let mut k = top;
        while k + 4 <= i {
            let at = |r: usize| V::load(&li[(k + r) * w..]);
            let l = [at(0), at(1), at(2), at(3)];
            let keep = all_zero(l);
            if !V::all(keep) {
                let len = started[k + 3] * w;
                let row = |r: usize| solved[(k + r) * stride..][..len].chunks_exact(w);
                for ((((v, a0), a1), a2), a3) in xi[..len]
                    .chunks_exact_mut(w)
                    .zip(row(0))
                    .zip(row(1))
                    .zip(row(2))
                    .zip(row(3))
                {
                    let old = V::load(v);
                    let new = old
                        .sub(l[0].mul(V::load(a0)))
                        .sub(l[1].mul(V::load(a1)))
                        .sub(l[2].mul(V::load(a2)))
                        .sub(l[3].mul(V::load(a3)));
                    V::select(keep, old, new).store(v);
                }
            }
            k += 4;
        }
        for k in k..i {
            let lik = V::load(&li[k * w..]);
            let keep = lik.zero();
            if !V::all(keep) {
                let len = started[k] * w;
                for (v, y) in xi[..len]
                    .chunks_exact_mut(w)
                    .zip(solved[k * stride..][..len].chunks_exact(w))
                {
                    let old = V::load(v);
                    V::select(keep, old, old.sub(lik.mul(V::load(y)))).store(v);
                }
            }
        }
        let d = V::load(&li[i * w..]);
        for v in xi[..started[i] * w].chunks_exact_mut(w) {
            V::load(v).div(d).flush().store(v);
        }
    }

    s_local.fill(0.0);
    let mut i = top;
    while i + 4 <= n {
        let len = started[i + 3];
        let row = |r: usize| &x[(i + r) * stride..][..len * w];
        let y = [row(0), row(1), row(2), row(3)];
        for a in 0..len {
            let at = |r: usize| V::load(&y[r][a * w..]);
            let c = [at(0), at(1), at(2), at(3)];
            let keep = all_zero(c);
            if V::all(keep) {
                continue;
            }
            let end = (a + 1) * w;
            for ((((v, a0), a1), a2), a3) in s_local[a * stride..][..end]
                .chunks_exact_mut(w)
                .zip(y[0][..end].chunks_exact(w))
                .zip(y[1][..end].chunks_exact(w))
                .zip(y[2][..end].chunks_exact(w))
                .zip(y[3][..end].chunks_exact(w))
            {
                let old = V::load(v);
                let new = old
                    .add(c[0].mul(V::load(a0)))
                    .add(c[1].mul(V::load(a1)))
                    .add(c[2].mul(V::load(a2)))
                    .add(c[3].mul(V::load(a3)));
                V::select(keep, old, new).store(v);
            }
        }
        i += 4;
    }
    for i in i..n {
        let xi = &x[i * stride..][..started[i] * w];
        for a in 0..started[i] {
            let xa = V::load(&xi[a * w..]);
            let keep = xa.zero();
            if V::all(keep) {
                continue;
            }
            let end = (a + 1) * w;
            for (v, y) in s_local[a * stride..][..end]
                .chunks_exact_mut(w)
                .zip(xi[..end].chunks_exact(w))
            {
                let old = V::load(v);
                V::select(keep, old, old.add(xa.mul(V::load(y)))).store(v);
            }
        }
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

    struct LaneCholesky<'a> {
        a: &'a mut [f64],
        n: usize,
    }

    impl LaneKernel for LaneCholesky<'_> {
        type Output = Result<(), LpError>;
        #[inline(always)]
        fn run<V: Vector>(self) -> Result<(), LpError> {
            cholesky_lanes::<V>(self.a, self.n, DEFAULT_CHOLESKY_BLOCK, 1e-10)
        }
    }

    struct LaneSolve<'a> {
        factor: &'a [f64],
        n: usize,
        b: &'a mut [f64],
    }

    impl LaneKernel for LaneSolve<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Vector>(self) {
            cholesky_solve_lanes::<V>(self.factor, self.n, self.b)
        }
    }

    /// `lanes` seeded SPD matrices of size `n`.  Lane `l % 3 == 1` has its
    /// off-diagonal entries scaled down until its factor's entries flush to
    /// zero; lane `l % 3 == 2` has every other row's off-diagonals zero.  A
    /// dominant diagonal keeps every lane positive definite.
    fn lane_matrices(n: usize, lanes: usize, seed: u64) -> Vec<DenseMatrix> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..lanes)
            .map(|l| {
                let vals: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut a = random_spd(&vals, n);
                for i in 0..n {
                    for j in 0..i {
                        let v = match l % 3 {
                            1 => a[(i, j)] * 1e-160,
                            2 if i % 2 == 0 => 0.0,
                            _ => a[(i, j)],
                        };
                        a[(i, j)] = v;
                        a[(j, i)] = v;
                    }
                }
                for i in 0..n {
                    a[(i, i)] = 1.0
                        + (0..n)
                            .filter(|&j| j != i)
                            .map(|j| a[(i, j)].abs())
                            .sum::<f64>();
                }
                a
            })
            .collect()
    }

    fn interleave(mats: &[DenseMatrix]) -> Vec<f64> {
        let lanes = mats.len();
        let n = mats[0].rows();
        let mut out = vec![0.0; n * n * lanes];
        for (l, m) in mats.iter().enumerate() {
            for e in 0..n * n {
                out[e * lanes + l] = m.data[e];
            }
        }
        out
    }

    /// Every instruction set this CPU runs, at every lane count, against
    /// the scalar blocked Cholesky and solve bit for bit: one panel and
    /// several (n > 64), flushed factor entries, zero rows and an infinite
    /// pivot.
    #[test]
    fn lane_cholesky_and_solve_match_scalar_kernels() {
        use rand::{Rng, SeedableRng};
        for isa in Isa::supported() {
            for lanes in [1, MAX_LANES] {
                for n in [1, 5, 49, 70, 130] {
                    let mut mats = lane_matrices(n, lanes, (n * lanes) as u64);
                    // An infinite pivot takes the regularization, as a tiny one does.
                    mats[lanes - 1][(n - 1, n - 1)] = f64::INFINITY;
                    let mut a = interleave(&mats);
                    isa.run(lanes, LaneCholesky { a: &mut a, n })
                        .unwrap_or_else(|e| panic!("{isa:?} {lanes} {n}: {e}"));
                    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
                    let rhs: Vec<f64> = (0..n * lanes).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut b = rhs.clone();
                    isa.run(
                        lanes,
                        LaneSolve {
                            factor: &a,
                            n,
                            b: &mut b,
                        },
                    );
                    for (l, m) in mats.iter().enumerate() {
                        let mut f = m.clone();
                        f.cholesky_in_place(1e-10).unwrap();
                        if l % 3 == 1 && n > 1 {
                            assert_eq!(f[(n - 1, 0)], 0.0, "lane {l} flushes");
                        }
                        for i in 0..n {
                            for j in 0..=i {
                                assert_eq!(
                                    a[(i * n + j) * lanes + l].to_bits(),
                                    f[(i, j)].to_bits(),
                                    "{isa:?}, {lanes} lanes, n = {n}: lane {l} entry ({i}, {j})"
                                );
                            }
                        }
                        let mut x: Vec<f64> = (0..n).map(|i| rhs[i * lanes + l]).collect();
                        f.cholesky_solve_into(&mut x);
                        for (i, v) in x.iter().enumerate() {
                            assert_eq!(
                                b[i * lanes + l].to_bits(),
                                v.to_bits(),
                                "{isa:?}, {lanes} lanes, n = {n}: lane {l} solution {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A NaN pivot gives the scalar kernel's error on the first failing
    /// lane, even when a later lane fails at an earlier column.
    #[test]
    fn lane_cholesky_reports_the_first_failing_lane() {
        for isa in Isa::supported() {
            let n = 70;
            let mut mats = lane_matrices(n, MAX_LANES, 11);
            mats[1][(40, 40)] = f64::NAN;
            mats[MAX_LANES - 1][(10, 10)] = f64::NAN;
            // A NaN below the diagonal reaches a pivot in the second panel.
            mats[0][(66, 3)] = f64::NAN;
            let want = mats
                .iter()
                .find_map(|m| m.clone().cholesky_in_place(1e-10).err())
                .expect("a lane fails");
            let mut a = interleave(&mats);
            let got = isa
                .run(MAX_LANES, LaneCholesky { a: &mut a, n })
                .unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "{isa:?}");
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
