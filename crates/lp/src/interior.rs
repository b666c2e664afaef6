//! Primal–dual path-following interior-point solvers.
//!
//! The solver works on the mixed form
//!
//! ```text
//! minimize    cᵀx
//! subject to  G x ≤ h        (m_in inequality rows)
//!             E x = f        (m_eq equality rows)
//!             x ≥ 0
//! ```
//!
//! Every Newton step is reduced to a positive-definite system in the variables
//! only (size `n × n`), optionally exploiting a *block-angular* structure: when
//! every inequality row touches the variables of a single block, the Newton
//! matrix `Gᵀ·diag(λ/w)·G + diag(s/x)` is block diagonal and the equality rows
//! are handled through a small Schur complement.  The obfuscation LPs of the
//! CORGI paper have exactly this structure (Geo-Ind constraints live inside one
//! matrix column; row-stochasticity couples columns), which is what makes
//! K = 49…343 location instances tractable without an external solver.
//!
//! Steps use Mehrotra's predictor–corrector heuristic; the implementation follows
//! the standard infeasible-start formulation (see Wright, *Primal–Dual
//! Interior-Point Methods*, 1997).
//!
//! # Preparation and re-solves
//!
//! Before the first iteration a problem is *prepared*: every row is
//! equilibrated to unit max-absolute coefficient, split into the inequality
//! (`G`) and equality (`E`) sets, which are stored flat as CSR (row pointers
//! plus one index and one value array), and the inequality rows are grouped by
//! block with the coupling columns of the Schur complement extracted.
//! [`BlockAngularSolver::solve_with_warm`] prepares and then runs the one IPM
//! loop.  [`PreparedLp`] keeps the prepared form across solves: Algorithm 1's
//! refinements change only inequality coefficients, which
//! [`PreparedLp::update_row`] rewrites in place with the same equilibration
//! arithmetic, so a chain of re-solves skips the rebuild and still runs
//! exactly the floating-point operations of a fresh preparation.
//!
//! # Kernel strategies
//!
//! Two interchangeable linear-algebra backends drive the Newton systems (see
//! [`KernelStrategy`]):
//!
//! * [`KernelStrategy::Blocked`] (default) — blocked Cholesky factorization of
//!   the per-block Newton matrices plus a *structure-aware* Schur-complement
//!   assembly.  The coupling blocks `E_b` (the slice of the equality rows that
//!   touches block `b`) are stored as sparse columns, analyzed **once** per
//!   preparation — the sparsity pattern is static across interior-point
//!   iterations, only the numeric values of the Newton matrix change.  Each
//!   iteration then computes `V = E_b L_b⁻ᵀ` with sparse-aware forward
//!   substitutions (leading zeros of each coupling column are skipped) and
//!   accumulates only the lower triangle of `S += V Vᵀ` with contiguous row
//!   dot products, instead of forming the dense `n_b × m_eq` product
//!   `M_b⁻¹ E_bᵀ` and a dense `m_eq² · n_b` triple loop.  All per-block factor
//!   and scratch buffers live in a workspace that is allocated once and
//!   recycled across iterations.
//! * [`KernelStrategy::Reference`] — the original scalar kernels (textbook
//!   left-looking Cholesky, per-column multi-RHS solves, dense Schur
//!   accumulation), kept verbatim so the perf-gated benchmarks can measure the
//!   speedup and the agreement tests can assert both strategies produce the
//!   same solutions.
//!
//! For the paper's K-location obfuscation LP (K² variables, K per-column
//! blocks, K row-stochasticity equalities) the reference Schur assembly alone
//! costs `K⁴` multiply-adds per iteration; the sparse path reduces it to `K³/3`
//! because every coupling column has exactly one nonzero.
//!
//! Both strategies run every kernel on the calling thread.  The caller owns
//! the parallelism: the serving stack solves one LP per subtree and spreads
//! those independent solves over a pool with one worker per core, so a
//! second fan-out inside each solve would only oversubscribe the cores.

use crate::{
    dense::{dot, DenseMatrix, FLUSH_THRESHOLD},
    ConstraintSense, LpError, LpProblem, LpSolution, LpSolver, SolveStatus, WarmStart,
};

/// Diagonal regularization added to keep Cholesky factorizations stable.
const REGULARIZATION: f64 = 1e-10;

/// Fraction of the distance to the boundary taken by each step (0 < τ < 1).
const STEP_FRACTION: f64 = 0.995;

/// Maximum Gondzio centrality correctors per iteration.
///
/// The obfuscation LPs are heavily degenerate: near the optimum a handful of
/// complementarity products sit far below the barrier average and truncate
/// the Mehrotra step to α ≈ 0.1–0.4, so residuals shrink by only (1 − α) per
/// iteration and the tail grinds.  Each corrector reuses the existing
/// factorization (back/forward solves only — no refactorization) to lift the
/// outlier products toward the central path, then keeps the enlarged
/// direction only if the step length actually improved.
const MAX_CENTRALITY_CORRECTORS: usize = 2;

/// Linear-algebra backend used for the Newton systems (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStrategy {
    /// Blocked Cholesky + sparse Schur assembly with a reused workspace
    /// (default; the fast path for the K = 343 full-tree regime).
    Blocked,
    /// The pre-optimization scalar kernels, kept as the measurable baseline.
    Reference,
}

/// Tuning knobs of the interior-point solvers.
#[derive(Debug, Clone, Copy)]
pub struct InteriorPointOptions {
    /// Maximum number of interior-point iterations.
    pub max_iterations: usize,
    /// Relative tolerance on primal/dual residuals and the complementarity gap.
    pub tolerance: f64,
    /// Which linear-algebra kernels drive the Newton systems.
    pub kernels: KernelStrategy,
}

impl Default for InteriorPointOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-8,
            kernels: KernelStrategy::Blocked,
        }
    }
}

impl InteriorPointOptions {
    /// The default options with the [`KernelStrategy::Reference`] backend —
    /// convenience for benchmarks and agreement tests.
    pub fn reference_kernels() -> Self {
        Self {
            kernels: KernelStrategy::Reference,
            ..Self::default()
        }
    }
}

/// General-purpose interior-point solver (single block).
#[derive(Debug, Clone)]
pub struct InteriorPointSolver {
    options: InteriorPointOptions,
}

impl InteriorPointSolver {
    /// Create a solver with the given options.
    pub fn new(options: InteriorPointOptions) -> Self {
        Self { options }
    }
}

impl Default for InteriorPointSolver {
    fn default() -> Self {
        Self::new(InteriorPointOptions::default())
    }
}

impl LpSolver for InteriorPointSolver {
    fn solve(&self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        let blocks = vec![(0..problem.num_vars()).collect::<Vec<_>>()];
        solve_ipm(problem, &blocks, &self.options, self.name(), None)
    }

    fn name(&self) -> &'static str {
        "interior-point"
    }
}

/// [`LpSolver::name`] of the block-angular solver (and of [`PreparedLp`]).
const BLOCK_ANGULAR_NAME: &str = "block-angular-ipm";

/// Interior-point solver exploiting a block-angular structure.
///
/// `blocks` is a partition of the variable indices.  Every *inequality*
/// constraint must reference variables of one block only; equality constraints
/// may couple blocks freely.
#[derive(Debug, Clone)]
pub struct BlockAngularSolver {
    blocks: Vec<Vec<usize>>,
    options: InteriorPointOptions,
}

impl BlockAngularSolver {
    /// Create a solver for the given variable partition.
    pub fn new(blocks: Vec<Vec<usize>>, options: InteriorPointOptions) -> Self {
        Self { blocks, options }
    }

    /// [`LpSolver::solve`], optionally seeded with a [`WarmStart`] captured
    /// from a previous `Optimal` solve of the same or a nearby problem (the
    /// shape must match, i.e. same variable count and constraint-row counts;
    /// anything else degrades to the cold start).
    pub fn solve_with_warm(
        &self,
        problem: &LpProblem,
        warm: Option<&WarmStart>,
    ) -> Result<LpSolution, LpError> {
        validate_blocks(&self.blocks, problem.num_vars())?;
        solve_ipm(problem, &self.blocks, &self.options, self.name(), warm)
    }
}

impl LpSolver for BlockAngularSolver {
    fn solve(&self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        validate_blocks(&self.blocks, problem.num_vars())?;
        solve_ipm(problem, &self.blocks, &self.options, self.name(), None)
    }

    fn name(&self) -> &'static str {
        BLOCK_ANGULAR_NAME
    }
}

fn validate_blocks(blocks: &[Vec<usize>], num_vars: usize) -> Result<(), LpError> {
    let mut seen = vec![false; num_vars];
    for block in blocks {
        for &v in block {
            if v >= num_vars {
                return Err(LpError::InvalidBlockStructure(format!(
                    "variable {v} out of range"
                )));
            }
            if seen[v] {
                return Err(LpError::InvalidBlockStructure(format!(
                    "variable {v} appears in more than one block"
                )));
            }
            seen[v] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(LpError::InvalidBlockStructure(format!(
            "variable {missing} is not covered by any block"
        )));
    }
    Ok(())
}

/// Sparse rows stored flat (CSR): row `r` owns the entries
/// `ptr[r]..ptr[r + 1]` of `idx` (variable indices) and `val` (coefficients).
struct SparseRows {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl SparseRows {
    fn new() -> Self {
        Self {
            ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    fn range(&self, r: usize) -> std::ops::Range<usize> {
        self.ptr[r]..self.ptr[r + 1]
    }

    fn idx(&self, r: usize) -> &[usize] {
        &self.idx[self.range(r)]
    }

    fn val(&self, r: usize) -> &[f64] {
        &self.val[self.range(r)]
    }

    /// Append a row with the given variable indices and zero coefficients;
    /// returns the coefficient slice for the caller to fill.
    fn push_pattern(&mut self, coeffs: &[(usize, f64)]) -> &mut [f64] {
        let start = self.idx.len();
        self.idx.extend(coeffs.iter().map(|&(j, _)| j));
        self.val.resize(self.idx.len(), 0.0);
        self.ptr.push(self.idx.len());
        &mut self.val[start..]
    }

    fn dot(&self, r: usize, x: &[f64]) -> f64 {
        self.idx(r)
            .iter()
            .zip(self.val(r).iter())
            .map(|(&j, &a)| a * x[j])
            .sum()
    }

    /// y[idx] += alpha * val
    fn axpy_into(&self, r: usize, alpha: f64, y: &mut [f64]) {
        for (&j, &a) in self.idx(r).iter().zip(self.val(r).iter()) {
            y[j] += alpha * a;
        }
    }
}

/// Write the equilibrated coefficients of a constraint row into `out` (in
/// `coeffs` order) and return its equilibrated right-hand side, with `≥` rows
/// negated into `≤` form.
///
/// Row equilibration scales every constraint row to unit max-absolute
/// coefficient.  The feasible set is unchanged but the Newton systems stay
/// well-conditioned even when coefficients span many orders of magnitude (the
/// Geo-Ind bounds e^{ε·d} easily reach 10⁶ and beyond).  [`prepare`] and
/// [`PreparedLp::update_row`] both go through here, so an updated row holds
/// exactly the values a fresh preparation would.
fn equilibrate_row(
    coeffs: &[(usize, f64)],
    sense: ConstraintSense,
    rhs: f64,
    out: &mut [f64],
) -> f64 {
    let max_abs = coeffs.iter().fold(0.0f64, |m, &(_, a)| m.max(a.abs()));
    let scale = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
    let rhs = rhs * scale;
    if sense == ConstraintSense::Ge {
        for (v, &(_, a)) in out.iter_mut().zip(coeffs) {
            *v = -(a * scale);
        }
        -rhs
    } else {
        for (v, &(_, a)) in out.iter_mut().zip(coeffs) {
            *v = a * scale;
        }
        rhs
    }
}

/// One column of the coupling matrix `E_bᵀ` of a block: the nonzeros (in
/// block-local coordinates) that one equality row contributes to the block.
///
/// Extracted once per preparation — the pattern is static across
/// interior-point iterations — and consumed by the sparse Schur assembly
/// every iteration.
struct CouplingColumn {
    /// Smallest local index with a nonzero (forward solves start here).
    first: usize,
    /// `(local index, coefficient)` nonzeros.
    entries: Vec<(usize, f64)>,
}

struct Prepared {
    n: usize,
    c: Vec<f64>,
    g: SparseRows,
    h: Vec<f64>,
    e: SparseRows,
    f: Vec<f64>,
    /// block id of every variable
    var_block: Vec<usize>,
    /// local index of every variable inside its block
    var_local: Vec<usize>,
    blocks: Vec<Vec<usize>>,
    /// inequality rows grouped by block
    g_by_block: Vec<Vec<usize>>,
    /// block-local variable index of every inequality coefficient (parallel
    /// to `g.idx`)
    g_local: Vec<usize>,
    /// equality rows touching each block (for the Schur assembly)
    eq_by_block: Vec<Vec<usize>>,
    /// sparse columns of `E_bᵀ` per block (parallel to `eq_by_block[b]`)
    coupling_by_block: Vec<Vec<CouplingColumn>>,
    /// position of every constraint among the `g` or `e` rows (by its sense)
    slot: Vec<usize>,
}

fn prepare(problem: &LpProblem, blocks: &[Vec<usize>]) -> Result<Prepared, LpError> {
    let n = problem.num_vars();
    if n == 0 {
        return Err(LpError::EmptyProblem);
    }
    let mut var_block = vec![usize::MAX; n];
    let mut var_local = vec![usize::MAX; n];
    for (b, block) in blocks.iter().enumerate() {
        for (local, &v) in block.iter().enumerate() {
            var_block[v] = b;
            var_local[v] = local;
        }
    }

    let mut g = SparseRows::new();
    let mut h = Vec::new();
    let mut e = SparseRows::new();
    let mut f = Vec::new();
    let mut slot = Vec::with_capacity(problem.num_constraints());
    for cons in problem.constraints() {
        let (rows, rhs) = match cons.sense {
            ConstraintSense::Le | ConstraintSense::Ge => (&mut g, &mut h),
            ConstraintSense::Eq => (&mut e, &mut f),
        };
        slot.push(rows.len());
        let out = rows.push_pattern(&cons.coeffs);
        rhs.push(equilibrate_row(&cons.coeffs, cons.sense, cons.rhs, out));
    }

    // Group inequality rows by block and reject rows spanning blocks; cache the
    // block-local index of every row coefficient (static across iterations).
    let mut g_by_block = vec![Vec::new(); blocks.len()];
    for ri in 0..g.len() {
        let mut row_block: Option<usize> = None;
        for &j in g.idx(ri) {
            let b = var_block[j];
            match row_block {
                None => row_block = Some(b),
                Some(existing) if existing != b => {
                    return Err(LpError::ConstraintSpansBlocks { constraint: ri });
                }
                _ => {}
            }
        }
        // Rows with no variables are vacuous; attach to block 0.
        g_by_block[row_block.unwrap_or(0)].push(ri);
    }
    let g_local = g.idx.iter().map(|&v| var_local[v]).collect();

    // Equality rows touching each block, plus the sparse coupling columns.
    let mut eq_by_block = vec![Vec::new(); blocks.len()];
    for ri in 0..e.len() {
        let mut touched = vec![false; blocks.len()];
        for &j in e.idx(ri) {
            touched[var_block[j]] = true;
        }
        for (b, t) in touched.iter().enumerate() {
            if *t {
                eq_by_block[b].push(ri);
            }
        }
    }
    let coupling_by_block: Vec<Vec<CouplingColumn>> = eq_by_block
        .iter()
        .enumerate()
        .map(|(b, active)| {
            active
                .iter()
                .map(|&eq_row| {
                    let entries: Vec<(usize, f64)> = e
                        .idx(eq_row)
                        .iter()
                        .zip(e.val(eq_row).iter())
                        .filter(|(&v, _)| var_block[v] == b)
                        .map(|(&v, &a)| (var_local[v], a))
                        .collect();
                    let first = entries.iter().map(|&(l, _)| l).min().unwrap_or(0);
                    CouplingColumn { first, entries }
                })
                .collect()
        })
        .collect();

    Ok(Prepared {
        n,
        c: problem.objective().to_vec(),
        g,
        h,
        e,
        f,
        var_block,
        var_local,
        blocks: blocks.to_vec(),
        g_by_block,
        g_local,
        eq_by_block,
        coupling_by_block,
        slot,
    })
}

/// A block-angular LP prepared once for a chain of solves that differ only in
/// inequality coefficients (Algorithm 1's reserved-budget refinements).
///
/// Owns the [`LpProblem`] together with its prepared form: rows equilibrated
/// and split into inequality and equality sets (stored flat), inequality rows
/// grouped by block, the coupling columns of the Schur complement extracted.
/// [`PreparedLp::update_row`] rewrites one inequality row in both at once,
/// with exactly the arithmetic of a fresh preparation, so
/// [`PreparedLp::solve_with_warm`] after any sequence of updates runs the same
/// floating-point operations as [`BlockAngularSolver::solve_with_warm`] on
/// the rebuilt problem — and returns the same solution bit for bit.
pub struct PreparedLp {
    problem: LpProblem,
    prep: Prepared,
}

impl PreparedLp {
    /// Validate the block partition and prepare `problem` under it.
    pub fn new(problem: LpProblem, blocks: &[Vec<usize>]) -> Result<Self, LpError> {
        validate_blocks(blocks, problem.num_vars())?;
        let prep = prepare(&problem, blocks)?;
        Ok(Self { problem, prep })
    }

    /// The problem in its current (updated) form.
    pub fn problem(&self) -> &LpProblem {
        &self.problem
    }

    /// Replace the coefficient values of inequality constraint `constraint`.
    ///
    /// `coeffs` must name the row's variables in the row's order; only the
    /// values change.  An equality row ([`LpError::EqualityRowUpdate`]), a
    /// different pattern ([`LpError::RowPatternMismatch`]), an index out of
    /// range or a non-finite value is refused and leaves the LP unchanged.
    pub fn update_row(
        &mut self,
        constraint: usize,
        coeffs: &[(usize, f64)],
    ) -> Result<(), LpError> {
        let Some(cons) = self.problem.constraints().get(constraint) else {
            return Err(LpError::ConstraintOutOfRange {
                index: constraint,
                num_constraints: self.problem.num_constraints(),
            });
        };
        if cons.sense == ConstraintSense::Eq {
            return Err(LpError::EqualityRowUpdate { constraint });
        }
        if cons.coeffs.len() != coeffs.len()
            || cons.coeffs.iter().zip(coeffs).any(|(a, b)| a.0 != b.0)
        {
            return Err(LpError::RowPatternMismatch { constraint });
        }
        if coeffs.iter().any(|(_, a)| !a.is_finite()) {
            return Err(LpError::NonFiniteCoefficient);
        }
        let row = self.prep.slot[constraint];
        let range = self.prep.g.range(row);
        self.prep.h[row] =
            equilibrate_row(coeffs, cons.sense, cons.rhs, &mut self.prep.g.val[range]);
        self.problem.overwrite_coefficients(constraint, coeffs);
        Ok(())
    }

    /// Solve the prepared problem with the block-angular interior-point
    /// method, optionally warm-started (see [`BlockAngularSolver::solve_with_warm`]).
    pub fn solve_with_warm(
        &self,
        options: &InteriorPointOptions,
        warm: Option<&WarmStart>,
    ) -> Result<LpSolution, LpError> {
        run_ipm(&self.problem, &self.prep, options, BLOCK_ANGULAR_NAME, warm)
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Barrier weight of an inequality row, capped to keep the Cholesky stable.
///
/// Near convergence the slack of an active constraint underflows and λ/w would
/// overflow to infinity, which would poison the factorization.  The cap acts as
/// an implicit proximal regularization and does not change the limit.
#[inline]
fn barrier_weight(lam: f64, w: f64) -> f64 {
    (lam / w).min(1e10)
}

// ---------------------------------------------------------------------------
// Blocked kernels: workspace, factorization, Newton solve.
// ---------------------------------------------------------------------------

/// Per-solve scratch of the blocked kernel strategy.
///
/// Allocated once before the first iteration and recycled: the factor storage,
/// the Schur matrix and the `V = E_b L_b⁻ᵀ` scratch panel are zeroed and
/// refilled each iteration instead of reallocated (the reference path, kept
/// for comparison, reallocates ~2·n² doubles per iteration).
struct BlockedWorkspace {
    /// Cholesky factors of the per-block Newton matrices (persistent storage).
    factors: Vec<DenseMatrix>,
    /// Lower triangle of the Schur complement `E M⁻¹ Eᵀ` (+ regularization).
    schur: DenseMatrix,
    /// Whether equality rows exist (i.e. `schur` is meaningful).
    has_eq: bool,
    /// Flat scratch for the rows of `V = E_b L_b⁻ᵀ`, stride `v_stride`.
    v_data: Vec<f64>,
    v_stride: usize,
    /// First nonzero of each currently held `V` row.
    v_first: Vec<usize>,
    /// One-past-the-last nonzero of each currently held `V` row (the rows of a
    /// forward solve against a diagonally dominant factor decay geometrically,
    /// so after flushing they are effectively banded; the Schur accumulation
    /// skips row pairs whose bands do not overlap).
    v_last: Vec<usize>,
}

impl BlockedWorkspace {
    fn new(prep: &Prepared) -> Self {
        let m_eq = prep.e.len();
        let max_nb = prep.blocks.iter().map(Vec::len).max().unwrap_or(0);
        let max_active = prep.eq_by_block.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            factors: prep
                .blocks
                .iter()
                .map(|b| DenseMatrix::zeros(b.len(), b.len()))
                .collect(),
            schur: DenseMatrix::zeros(m_eq, m_eq),
            has_eq: m_eq > 0,
            v_data: vec![0.0; max_active * max_nb],
            v_stride: max_nb,
            v_first: vec![0; max_active],
            v_last: vec![0; max_active],
        }
    }
}

/// Assemble the lower triangle of block `b`'s Newton matrix
/// `M_b = G_bᵀ diag(λ/w) G_b + diag(s/x)` into `mb` (zeroed first; the
/// factorization never reads the upper triangle).
fn assemble_block_matrix(
    prep: &Prepared,
    b: usize,
    mb: &mut DenseMatrix,
    x: &[f64],
    s: &[f64],
    w: &[f64],
    lam: &[f64],
) {
    mb.fill(0.0);
    for &ri in &prep.g_by_block[b] {
        let range = prep.g.range(ri);
        mb.add_scaled_outer_sparse_lower(
            &prep.g_local[range.clone()],
            &prep.g.val[range],
            barrier_weight(lam[ri], w[ri]),
        );
    }
    for (local, &v) in prep.blocks[b].iter().enumerate() {
        mb.add_diagonal(local, (s[v] / x[v]).min(1e10));
    }
}

/// Accumulate block `b`'s Schur contribution `V_b V_bᵀ` (lower triangle, with
/// `V_b = E_b L_b⁻ᵀ`) into the workspace's Schur matrix, using its `V`-row
/// scratch.
///
/// Each row of `V_b` solves `L_b v = (coupling column)`, a forward
/// substitution started at the column's first nonzero.  The geometric tail of
/// every solve is flushed below [`FLUSH_THRESHOLD`] and the effective band
/// recorded: flushed entries square to exactly zero in the `V Vᵀ` products,
/// and leaving them in would (a) pay the subnormal microcode penalty per
/// multiply and (b) force every row pair into a full-length dot product.
/// The rank-k update then touches only the lower triangle of the Schur matrix
/// with contiguous row dots trimmed to the overlap of the two rows' bands.
fn accumulate_schur_block(prep: &Prepared, b: usize, ws: &mut BlockedWorkspace) {
    let BlockedWorkspace {
        factors,
        schur,
        v_data,
        v_stride,
        v_first,
        v_last,
        ..
    } = ws;
    let v_stride = *v_stride;
    let nb = prep.blocks[b].len();
    let active = &prep.eq_by_block[b];
    let coupling = &prep.coupling_by_block[b];
    for (a_pos, col) in coupling.iter().enumerate() {
        let row = &mut v_data[a_pos * v_stride..a_pos * v_stride + nb];
        row.fill(0.0);
        for &(local, coeff) in &col.entries {
            row[local] = coeff;
        }
        factors[b].forward_solve_from(row, col.first);
        let mut last = nb;
        while last > col.first && row[last - 1].abs() < FLUSH_THRESHOLD {
            last -= 1;
        }
        for v in row[col.first..last].iter_mut() {
            if v.abs() < FLUSH_THRESHOLD {
                *v = 0.0;
            }
        }
        row[last..nb].fill(0.0);
        v_first[a_pos] = col.first;
        v_last[a_pos] = last;
    }
    for (a_pos, &eq_a) in active.iter().enumerate() {
        for (b_pos, &eq_b) in active.iter().enumerate().take(a_pos + 1) {
            // `active` is ascending, so eq_a ≥ eq_b: lower triangle only.
            let start = v_first[a_pos].max(v_first[b_pos]);
            let end = v_last[a_pos].min(v_last[b_pos]);
            if start >= end {
                continue; // bands do not overlap: the dot is exactly zero
            }
            let va = &v_data[a_pos * v_stride + start..a_pos * v_stride + end];
            let vb = &v_data[b_pos * v_stride + start..b_pos * v_stride + end];
            schur[(eq_a, eq_b)] += dot(va, vb);
        }
    }
}

/// Assemble and factorize the block-diagonal Newton matrix and the Schur
/// complement with the blocked kernels, reusing the workspace buffers.
fn factor_blocked(
    prep: &Prepared,
    ws: &mut BlockedWorkspace,
    x: &[f64],
    s: &[f64],
    w: &[f64],
    lam: &[f64],
) -> Result<(), LpError> {
    // Per-block Newton matrices, assembled lower-triangle-only.
    for b in 0..prep.blocks.len() {
        let mb = &mut ws.factors[b];
        assemble_block_matrix(prep, b, mb, x, s, w, lam);
        mb.cholesky_in_place(REGULARIZATION)?;
    }

    if !ws.has_eq {
        return Ok(());
    }

    // Sparse Schur assembly: S = Σ_b E_b M_b⁻¹ E_bᵀ = Σ_b V_b V_bᵀ.
    ws.schur.fill(0.0);
    for b in 0..prep.blocks.len() {
        accumulate_schur_block(prep, b, ws);
    }
    for i in 0..prep.e.len() {
        ws.schur.add_diagonal(i, REGULARIZATION.max(1e-12));
    }
    ws.schur.cholesky_in_place(REGULARIZATION)
}

/// Newton solve against the blocked factorization.
///
/// Returns `(dx, dmu)`.
fn newton_solve_blocked(
    prep: &Prepared,
    ws: &BlockedWorkspace,
    rhs1: &[f64],
    r_p2: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let m_eq = prep.e.len();
    // t = M⁻¹ rhs1, blockwise, in-place solves on a reused local buffer.
    let mut t = vec![0.0; prep.n];
    let max_nb = ws.v_stride;
    let mut local = vec![0.0; max_nb];
    for (b, block) in prep.blocks.iter().enumerate() {
        let nb = block.len();
        for (l, &v) in block.iter().enumerate() {
            local[l] = rhs1[v];
        }
        ws.factors[b].cholesky_solve_into(&mut local[..nb]);
        for (l, &v) in block.iter().enumerate() {
            t[v] = local[l];
        }
    }
    if m_eq == 0 {
        return (t, Vec::new());
    }
    // rhs_schur = E t − r_p2
    let mut rhs_schur = vec![0.0; m_eq];
    for (ri, rhs) in rhs_schur.iter_mut().enumerate() {
        *rhs = prep.e.dot(ri, &t) - r_p2[ri];
    }
    let dmu = ws.schur.cholesky_solve(&rhs_schur);
    // dx = M⁻¹ (rhs1 − Eᵀ dmu), blockwise: scatter E_bᵀ dmu through the sparse
    // coupling columns, one solve per block — the dense `M_b⁻¹ E_bᵀ` product of
    // the reference path is never materialized.
    let mut dx = vec![0.0; prep.n];
    for (b, block) in prep.blocks.iter().enumerate() {
        let nb = block.len();
        let active = &prep.eq_by_block[b];
        let coupling = &prep.coupling_by_block[b];
        let u = &mut local[..nb];
        u.fill(0.0);
        for (a_pos, col) in coupling.iter().enumerate() {
            let d = dmu[active[a_pos]];
            if d != 0.0 {
                for &(l, coeff) in &col.entries {
                    u[l] += coeff * d;
                }
            }
        }
        ws.factors[b].cholesky_solve_into(u);
        for (l, &v) in block.iter().enumerate() {
            dx[v] = t[v] - u[l];
        }
    }
    (dx, dmu)
}

// ---------------------------------------------------------------------------
// Reference kernels (pre-optimization), kept for benchmarks and agreement.
// ---------------------------------------------------------------------------

/// Factorization state of the reference path: per-block factors, the dense
/// Schur factor, and the materialized `M_b⁻¹ E_bᵀ` panels.
struct ReferenceFactors {
    block_factors: Vec<DenseMatrix>,
    schur_factor: Option<DenseMatrix>,
    block_ez: Vec<DenseMatrix>,
}

/// Assemble and factorize with the original scalar kernels (fresh allocations
/// every iteration, dense Schur accumulation) — the measurable baseline.
fn factor_reference(
    prep: &Prepared,
    x: &[f64],
    s: &[f64],
    w: &[f64],
    lam: &[f64],
) -> Result<ReferenceFactors, LpError> {
    let m_eq = prep.e.len();
    let mut block_factors = Vec::with_capacity(prep.blocks.len());
    for (b, block) in prep.blocks.iter().enumerate() {
        let nb = block.len();
        let mut mb = DenseMatrix::zeros(nb, nb);
        for &ri in &prep.g_by_block[b] {
            let local_idx: Vec<usize> = prep.g.idx(ri).iter().map(|&v| prep.var_local[v]).collect();
            mb.add_scaled_outer_sparse(&local_idx, prep.g.val(ri), barrier_weight(lam[ri], w[ri]));
        }
        for (local, &v) in block.iter().enumerate() {
            mb.add_diagonal(local, (s[v] / x[v]).min(1e10));
        }
        mb.cholesky_in_place_unblocked(REGULARIZATION)?;
        block_factors.push(mb);
    }

    // Precompute M_b⁻¹ E_bᵀ and the Schur complement S = E M⁻¹ Eᵀ (+ reg I).
    let mut block_ez = Vec::with_capacity(prep.blocks.len());
    let mut schur_factor = None;
    if m_eq > 0 {
        let mut schur = DenseMatrix::zeros(m_eq, m_eq);
        for (b, block) in prep.blocks.iter().enumerate() {
            let nb = block.len();
            let active = &prep.eq_by_block[b];
            let mut ebt = DenseMatrix::zeros(nb, active.len());
            for (a_pos, &eq_row) in active.iter().enumerate() {
                for (&v, &a) in prep.e.idx(eq_row).iter().zip(prep.e.val(eq_row).iter()) {
                    if prep.var_block[v] == b {
                        ebt[(prep.var_local[v], a_pos)] = a;
                    }
                }
            }
            let z = block_factors[b].cholesky_solve_matrix_per_column(&ebt); // n_b × |active|
                                                                             // schur[active, active] += E_b · z  (E_b = ebtᵀ)
            for (a_pos, &eq_a) in active.iter().enumerate() {
                for (b_pos, &eq_b) in active.iter().enumerate() {
                    let mut v = 0.0;
                    for local in 0..nb {
                        v += ebt[(local, a_pos)] * z[(local, b_pos)];
                    }
                    schur[(eq_a, eq_b)] += v;
                }
            }
            block_ez.push(z);
        }
        for i in 0..m_eq {
            schur.add_diagonal(i, REGULARIZATION.max(1e-12));
        }
        schur.cholesky_in_place_unblocked(REGULARIZATION)?;
        schur_factor = Some(schur);
    } else {
        for block in &prep.blocks {
            block_ez.push(DenseMatrix::zeros(block.len(), 0));
        }
    }
    Ok(ReferenceFactors {
        block_factors,
        schur_factor,
        block_ez,
    })
}

/// Newton solve against the reference factorization.
///
/// Returns `(dx, dmu)`.
fn newton_solve_reference(
    prep: &Prepared,
    factors: &ReferenceFactors,
    rhs1: &[f64],
    r_p2: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let m_eq = prep.e.len();
    // t = M⁻¹ rhs1, blockwise.
    let mut t = vec![0.0; prep.n];
    for (b, block) in prep.blocks.iter().enumerate() {
        let local_rhs: Vec<f64> = block.iter().map(|&v| rhs1[v]).collect();
        let local_sol = factors.block_factors[b].cholesky_solve(&local_rhs);
        for (local, &v) in block.iter().enumerate() {
            t[v] = local_sol[local];
        }
    }
    if m_eq == 0 {
        return (t, Vec::new());
    }
    // rhs_schur = E t − r_p2
    let mut rhs_schur = vec![0.0; m_eq];
    for (ri, rhs) in rhs_schur.iter_mut().enumerate() {
        *rhs = prep.e.dot(ri, &t) - r_p2[ri];
    }
    let dmu = factors
        .schur_factor
        .as_ref()
        .expect("Schur factor exists when equality rows are present")
        .cholesky_solve(&rhs_schur);
    // dx = M⁻¹ (rhs1 − Eᵀ dmu), blockwise, reusing the precomputed M_b⁻¹ E_bᵀ.
    let mut dx = vec![0.0; prep.n];
    for (b, block) in prep.blocks.iter().enumerate() {
        let active = &prep.eq_by_block[b];
        let ez = &factors.block_ez[b]; // n_b × |active|: M_b⁻¹ E_bᵀ
        for (local, &v) in block.iter().enumerate() {
            let mut correction = 0.0;
            for (a_pos, &eq_row) in active.iter().enumerate() {
                correction += ez[(local, a_pos)] * dmu[eq_row];
            }
            dx[v] = t[v] - correction;
        }
    }
    (dx, dmu)
}

/// Factorization of one iteration's Newton matrix, under either kernel strategy.
enum Factorization<'a> {
    Blocked(&'a BlockedWorkspace),
    Reference(ReferenceFactors),
}

impl Factorization<'_> {
    fn newton_solve(&self, prep: &Prepared, rhs1: &[f64], r_p2: &[f64]) -> (Vec<f64>, Vec<f64>) {
        match self {
            Factorization::Blocked(ws) => newton_solve_blocked(prep, ws, rhs1, r_p2),
            Factorization::Reference(factors) => newton_solve_reference(prep, factors, rhs1, r_p2),
        }
    }
}

/// Prepare `problem` under `blocks`, then run the interior-point method.
fn solve_ipm(
    problem: &LpProblem,
    blocks: &[Vec<usize>],
    opts: &InteriorPointOptions,
    solver_name: &'static str,
    warm: Option<&WarmStart>,
) -> Result<LpSolution, LpError> {
    run_ipm(problem, &prepare(problem, blocks)?, opts, solver_name, warm)
}

/// The interior-point method on a prepared problem (`prep` must be the
/// prepared form of `problem`, which supplies only the reported objective).
fn run_ipm(
    problem: &LpProblem,
    prep: &Prepared,
    opts: &InteriorPointOptions,
    solver_name: &'static str,
    warm: Option<&WarmStart>,
) -> Result<LpSolution, LpError> {
    let n = prep.n;
    let m_in = prep.g.len();
    let m_eq = prep.e.len();

    // Primal and dual iterates, all strictly positive where required.
    let mut x = vec![1.0; n];
    let mut w = vec![1.0; m_in];
    let mut lam = vec![1.0; m_in];
    let mut s = vec![1.0; n];
    let mut mu_eq = vec![0.0; m_eq];

    let scale = 1.0
        + inf_norm(&prep.c)
            .max(inf_norm(&prep.h))
            .max(inf_norm(&prep.f));

    // Warm start: adopt a validated previous iterate, shifted back to the
    // strict interior.  The primal `x`, dual slacks `s` and all constraint
    // multipliers (`μ` for equalities, `λ` for inequalities — both carried in
    // `warm.y`) restart at their captured values, so the initial residuals are
    // those of the captured point on the *new* problem: near zero for a
    // same-or-nearby problem.  The inequality slacks `w` are recomputed from
    // the warm primal.  All barrier quantities are then re-centered *up* to
    // the barrier level μ₀ = max(warm.mu, 10·tol·scale): a converged iterate
    // sits essentially on the boundary (μ ≈ tol), and restarting a perturbed
    // problem from there leaves the path-following no room to move — lifting
    // the complementarity products to ≥ ~μ₀ restores that room while adding
    // only an O(μ₀) dual perturbation.  An unusable warm start (wrong
    // dimensions, non-finite entries, non-positive μ) silently falls back to
    // the cold unit start.
    const WARM_FLOOR: f64 = 1e-8;
    if let Some(warm) = warm {
        let usable = warm.x.len() == n
            && warm.s.len() == n
            && warm.y.len() == m_eq + m_in
            && warm.mu.is_finite()
            && warm.mu > 0.0
            && warm.x.iter().all(|v| v.is_finite())
            && warm.y.iter().all(|v| v.is_finite())
            && warm.s.iter().all(|v| v.is_finite());
        if usable {
            for j in 0..n {
                x[j] = warm.x[j].max(WARM_FLOOR);
            }
            // Raw inequality slacks of the warm primal on the *new* problem,
            // and its worst violation.  A same-problem restart has violation
            // ≈ 0; a perturbed problem (the δ-grid tightening its Geo-Ind
            // rows) can cut the old optimum off by an O(1) margin.  Restarting
            // with boundary slacks against such a violation stalls the
            // path-following — μ collapses while the primal residual is still
            // macroscopic and every step toward feasibility is blocked by the
            // positivity clamp — so the restart barrier level must grow with
            // the violation, giving the first iterations room to walk the
            // iterate back inside.
            let mut raw_w = vec![0.0; m_in];
            let mut violation = 0.0f64;
            for (ri, raw) in raw_w.iter_mut().enumerate() {
                *raw = prep.h[ri] - prep.g.dot(ri, &x);
                violation = violation.max(-*raw);
            }
            let mu0 = warm
                .mu
                .max(10.0 * opts.tolerance * scale)
                .max(violation)
                .min(scale);
            for j in 0..n {
                s[j] = warm.s[j].max(mu0 / x[j].max(1.0)).max(WARM_FLOOR);
            }
            mu_eq.copy_from_slice(&warm.y[..m_eq]);
            for ri in 0..m_in {
                // Rows the warm point satisfies keep their exact slack (a
                // legitimately active row's tiny w pairs with its large λ);
                // violated or boundary rows restart at the barrier level —
                // an interior, step-friendly slack whose residual the solver
                // is built to drive out.
                w[ri] = if raw_w[ri] >= WARM_FLOOR {
                    raw_w[ri]
                } else {
                    mu0.max(WARM_FLOOR)
                };
                lam[ri] = warm.y[m_eq + ri].max(mu0 / w[ri].max(1.0)).max(WARM_FLOOR);
            }
        }
    }

    let mut workspace = match opts.kernels {
        KernelStrategy::Blocked => Some(BlockedWorkspace::new(prep)),
        KernelStrategy::Reference => None,
    };

    // Set CORGI_IPM_TRACE=1 to print per-iteration residuals to stderr
    // (diagnosing warm-start quality and convergence stalls).
    let trace = std::env::var_os("CORGI_IPM_TRACE").is_some();

    let mut iterations = 0usize;
    let mut status = SolveStatus::IterationLimit;
    // Track the best iterate seen so far (by a simple merit of residuals + gap);
    // if the path-following stalls or diverges later, return this point instead
    // of the last iterate.
    let mut best_x = x.clone();
    let mut best_merit = f64::INFINITY;
    // μ of the last completed residual check — captured into the WarmStart on
    // convergence (it is then the converged complementarity gap).
    let mut mu_gap_final = f64::INFINITY;

    for iter in 0..opts.max_iterations {
        iterations = iter + 1;

        // Residuals.
        let mut r_p1 = vec![0.0; m_in]; // h − Gx − w
        for (ri, r) in r_p1.iter_mut().enumerate() {
            *r = prep.h[ri] - prep.g.dot(ri, &x) - w[ri];
        }
        let mut r_p2 = vec![0.0; m_eq]; // f − Ex
        for (ri, r) in r_p2.iter_mut().enumerate() {
            *r = prep.f[ri] - prep.e.dot(ri, &x);
        }
        // resid_dual = c + Gᵀλ + Eᵀμ − s
        let mut resid_dual = prep.c.clone();
        for (ri, &l) in lam.iter().enumerate() {
            prep.g.axpy_into(ri, l, &mut resid_dual);
        }
        for (ri, &m) in mu_eq.iter().enumerate() {
            prep.e.axpy_into(ri, m, &mut resid_dual);
        }
        for j in 0..n {
            resid_dual[j] -= s[j];
        }

        let gap_terms = x.iter().zip(s.iter()).map(|(a, b)| a * b).sum::<f64>()
            + w.iter().zip(lam.iter()).map(|(a, b)| a * b).sum::<f64>();
        let denom = (n + m_in) as f64;
        let mu_gap = gap_terms / denom;
        mu_gap_final = mu_gap;

        let primal_err = inf_norm(&r_p1).max(inf_norm(&r_p2));
        let dual_err = inf_norm(&resid_dual);
        if trace {
            eprintln!("iter {iter}: primal {primal_err:.3e} dual {dual_err:.3e} mu {mu_gap:.3e}");
        }
        let merit = primal_err + dual_err + mu_gap;
        if merit.is_finite() && merit < best_merit {
            best_merit = merit;
            best_x.copy_from_slice(&x);
        }
        if primal_err <= opts.tolerance * scale
            && dual_err <= opts.tolerance * scale
            && mu_gap <= opts.tolerance * scale
        {
            status = SolveStatus::Optimal;
            break;
        }
        // Divergence guard: infeasible-start path following is not guaranteed to
        // converge on problems without a strictly feasible interior.  Stop and
        // report the iteration limit instead of looping; callers can check the
        // returned point's feasibility (or fall back to the simplex).
        if !mu_gap.is_finite() || mu_gap > 1e14 || primal_err > 1e14 || dual_err > 1e14 {
            status = SolveStatus::IterationLimit;
            break;
        }

        // Assemble and factorize the Newton system under the selected kernels.
        let factorization = match opts.kernels {
            KernelStrategy::Blocked => {
                let ws = workspace.as_mut().expect("blocked workspace exists");
                factor_blocked(prep, ws, &x, &s, &w, &lam)?;
                Factorization::Blocked(workspace.as_ref().expect("blocked workspace exists"))
            }
            KernelStrategy::Reference => {
                Factorization::Reference(factor_reference(prep, &x, &s, &w, &lam)?)
            }
        };

        // rd3 = −resid_dual
        let rd3: Vec<f64> = resid_dual.iter().map(|v| -v).collect();

        // ---- Affine (predictor) direction: σ = 0, no corrector. ----
        let build_rhs1 = |rc1: &[f64], rc2: &[f64]| -> Vec<f64> {
            let mut rhs1 = rd3.clone();
            // + Gᵀ((λ/w)·r_p1 − rc2/w)
            for ri in 0..m_in {
                let u = (lam[ri] / w[ri]) * r_p1[ri] - rc2[ri] / w[ri];
                prep.g.axpy_into(ri, u, &mut rhs1);
            }
            // + rc1/x
            for j in 0..n {
                rhs1[j] += rc1[j] / x[j];
            }
            rhs1
        };

        let rc1_aff: Vec<f64> = x.iter().zip(s.iter()).map(|(xi, si)| -xi * si).collect();
        let rc2_aff: Vec<f64> = w.iter().zip(lam.iter()).map(|(wi, li)| -wi * li).collect();
        let rhs1_aff = build_rhs1(&rc1_aff, &rc2_aff);
        let (dx_aff, _) = factorization.newton_solve(prep, &rhs1_aff, &r_p2);
        let mut dw_aff = vec![0.0; m_in];
        let mut dlam_aff = vec![0.0; m_in];
        for ri in 0..m_in {
            dw_aff[ri] = r_p1[ri] - prep.g.dot(ri, &dx_aff);
            dlam_aff[ri] = (rc2_aff[ri] - lam[ri] * dw_aff[ri]) / w[ri];
        }
        let mut ds_aff = vec![0.0; n];
        for j in 0..n {
            ds_aff[j] = (rc1_aff[j] - s[j] * dx_aff[j]) / x[j];
        }

        let step_to_boundary = |v: &[f64], dv: &[f64]| -> f64 {
            let mut alpha = 1.0f64;
            for (vi, di) in v.iter().zip(dv.iter()) {
                if *di < 0.0 {
                    alpha = alpha.min(-vi / di);
                }
            }
            alpha
        };
        let alpha_p_aff = step_to_boundary(&x, &dx_aff).min(step_to_boundary(&w, &dw_aff));
        let alpha_d_aff = step_to_boundary(&s, &ds_aff).min(step_to_boundary(&lam, &dlam_aff));

        // Mehrotra centering parameter.
        let mut gap_aff = 0.0;
        for j in 0..n {
            gap_aff += (x[j] + alpha_p_aff * dx_aff[j]) * (s[j] + alpha_d_aff * ds_aff[j]);
        }
        for ri in 0..m_in {
            gap_aff += (w[ri] + alpha_p_aff * dw_aff[ri]) * (lam[ri] + alpha_d_aff * dlam_aff[ri]);
        }
        let mu_aff = gap_aff / denom;
        let sigma = if mu_gap > 0.0 {
            ((mu_aff / mu_gap).powi(3)).clamp(1e-8, 1.0)
        } else {
            0.0
        };
        // Centering target, floored away from the machine-precision regime:
        // convergence only needs μ ≤ tol·scale, but an aggressive σ (e.g. on a
        // warm restart that enters almost converged) can drive μ orders of
        // magnitude below that while the residuals still need cleaning up —
        // and at μ ~ 1e-10 the barrier diagonal is so ill-conditioned that the
        // Newton directions break down (observed as a dual-residual explosion
        // followed by NaN pivots).  The floor never blocks convergence and
        // never lifts μ (it is capped by the current gap).
        let target_mu = (sigma * mu_gap).max((0.05 * opts.tolerance * scale).min(mu_gap));

        // ---- Corrector direction. ----
        let rc1: Vec<f64> = (0..n)
            .map(|j| target_mu - x[j] * s[j] - dx_aff[j] * ds_aff[j])
            .collect();
        let rc2: Vec<f64> = (0..m_in)
            .map(|ri| target_mu - w[ri] * lam[ri] - dw_aff[ri] * dlam_aff[ri])
            .collect();
        let rhs1 = build_rhs1(&rc1, &rc2);
        let (mut dx, mut dmu) = factorization.newton_solve(prep, &rhs1, &r_p2);
        let mut dw = vec![0.0; m_in];
        let mut dlam = vec![0.0; m_in];
        for ri in 0..m_in {
            dw[ri] = r_p1[ri] - prep.g.dot(ri, &dx);
            dlam[ri] = (rc2[ri] - lam[ri] * dw[ri]) / w[ri];
        }
        let mut ds = vec![0.0; n];
        for j in 0..n {
            ds[j] = (rc1[j] - s[j] * dx[j]) / x[j];
        }

        let mut alpha_p =
            (STEP_FRACTION * step_to_boundary(&x, &dx).min(step_to_boundary(&w, &dw))).min(1.0);
        let mut alpha_d =
            (STEP_FRACTION * step_to_boundary(&s, &ds).min(step_to_boundary(&lam, &dlam))).min(1.0);

        // ---- Gondzio centrality correctors. ----
        //
        // These LPs are heavily degenerate: a handful of complementarity
        // products sit orders of magnitude below the barrier average, hit the
        // boundary almost immediately, and truncate every Mehrotra step to
        // α ≈ 0.1–0.4 — so residuals only shrink by (1 − α) per iteration and
        // the tail of the solve grinds geometrically.  Each corrector probes a
        // slightly longer trial step, measures which products fall outside the
        // centrality band [βmin, βmax]·σμ at that trial point, and solves one
        // more Newton system (reusing the factorization — back/forward solves
        // only) that pushes exactly those outliers back toward the central
        // path.  The enlarged direction is kept only if the achievable step
        // actually grew; otherwise the loop stops.
        const BETA_MIN: f64 = 0.1;
        const BETA_MAX: f64 = 10.0;
        // How far past the currently-achievable step each corrector probes.
        const TRIAL_ENLARGE: f64 = 0.1;
        let zeros_eq = vec![0.0; m_eq];
        for _ in 0..MAX_CENTRALITY_CORRECTORS {
            let trial_p = (alpha_p / STEP_FRACTION + TRIAL_ENLARGE * (1.0 - alpha_p)).min(1.0);
            let trial_d = (alpha_d / STEP_FRACTION + TRIAL_ENLARGE * (1.0 - alpha_d)).min(1.0);
            let lo = BETA_MIN * target_mu;
            let hi = BETA_MAX * target_mu;
            let band = |v: f64| {
                if v < lo {
                    lo - v
                } else if v > hi {
                    hi - v
                } else {
                    0.0
                }
            };
            // Pairs whose primal side has converged to its bound are left
            // alone: the correction divides by that variable, so "lifting" a
            // boundary pair would inject an enormous (possibly overflowing)
            // right-hand side for a product that legitimately sits at zero.
            const BOUNDARY: f64 = 1e-12;
            let mut any_outlier = false;
            let t1: Vec<f64> = (0..n)
                .map(|j| {
                    if x[j] <= BOUNDARY {
                        return 0.0;
                    }
                    let t = band((x[j] + trial_p * dx[j]) * (s[j] + trial_d * ds[j]));
                    any_outlier |= t != 0.0;
                    t
                })
                .collect();
            let t2: Vec<f64> = (0..m_in)
                .map(|ri| {
                    if w[ri] <= BOUNDARY {
                        return 0.0;
                    }
                    let t = band((w[ri] + trial_p * dw[ri]) * (lam[ri] + trial_d * dlam[ri]));
                    any_outlier |= t != 0.0;
                    t
                })
                .collect();
            if !any_outlier {
                break;
            }
            // Newton system with zero residual blocks and the band violations
            // as the complementarity targets.
            let mut rhs1_c = vec![0.0; n];
            for (ri, &t) in t2.iter().enumerate() {
                if t != 0.0 {
                    prep.g.axpy_into(ri, -t / w[ri], &mut rhs1_c);
                }
            }
            for j in 0..n {
                rhs1_c[j] += t1[j] / x[j];
            }
            let (ddx, ddmu) = factorization.newton_solve(prep, &rhs1_c, &zeros_eq);
            let mut dwc = dw.clone();
            let mut dlamc = dlam.clone();
            for ri in 0..m_in {
                let ddw = -prep.g.dot(ri, &ddx);
                dwc[ri] += ddw;
                dlamc[ri] += (t2[ri] - lam[ri] * ddw) / w[ri];
            }
            let dxc: Vec<f64> = dx.iter().zip(&ddx).map(|(a, b)| a + b).collect();
            let dsc: Vec<f64> = (0..n)
                .map(|j| ds[j] + (t1[j] - s[j] * ddx[j]) / x[j])
                .collect();
            let ap = (STEP_FRACTION * step_to_boundary(&x, &dxc).min(step_to_boundary(&w, &dwc)))
                .min(1.0);
            let ad = (STEP_FRACTION
                * step_to_boundary(&s, &dsc).min(step_to_boundary(&lam, &dlamc)))
            .min(1.0);
            let finite = dxc.iter().all(|v| v.is_finite())
                && dsc.iter().all(|v| v.is_finite())
                && dwc.iter().all(|v| v.is_finite())
                && dlamc.iter().all(|v| v.is_finite());
            if !finite || ap + ad < alpha_p + alpha_d + 0.02 {
                break;
            }
            dx = dxc;
            dw = dwc;
            ds = dsc;
            dlam = dlamc;
            for (a, b) in dmu.iter_mut().zip(&ddmu) {
                *a += b;
            }
            alpha_p = ap;
            alpha_d = ad;
        }
        if trace {
            eprintln!(
                "  step: aff_p {alpha_p_aff:.3} aff_d {alpha_d_aff:.3} sigma {sigma:.3e} p {alpha_p:.3} d {alpha_d:.3}"
            );
        }

        // A tiny positive floor keeps the barrier quantities away from exact zero
        // (which would otherwise produce 0/0 in later iterations once a variable
        // converges to an active bound and underflows).
        const FLOOR: f64 = 1e-30;
        for j in 0..n {
            x[j] = (x[j] + alpha_p * dx[j]).max(FLOOR);
            s[j] = (s[j] + alpha_d * ds[j]).max(FLOOR);
        }
        for ri in 0..m_in {
            w[ri] = (w[ri] + alpha_p * dw[ri]).max(FLOOR);
            lam[ri] = (lam[ri] + alpha_d * dlam[ri]).max(FLOOR);
        }
        for (ri, d) in dmu.iter().enumerate() {
            mu_eq[ri] += alpha_d * d;
        }
        if x.iter().any(|v| !v.is_finite()) {
            // Numerical breakdown: stop and fall back to the best iterate.
            status = SolveStatus::IterationLimit;
            break;
        }
    }

    // Capture the converged iterate for warm-starting nearby solves — only on
    // `Optimal` (a diverged or stalled iterate would poison the next solve).
    let warm_out = if status == SolveStatus::Optimal {
        let mut y = mu_eq;
        y.extend_from_slice(&lam);
        Some(WarmStart {
            x: x.clone(),
            y,
            s,
            mu: mu_gap_final,
        })
    } else {
        None
    };
    let x = if status == SolveStatus::Optimal {
        x
    } else {
        best_x
    };
    let objective = problem.objective_value(&x);
    Ok(LpSolution {
        status,
        objective,
        x,
        iterations,
        solver: solver_name.to_string(),
        warm: warm_out,
    })
}

/// Benchmark support: drives the blocked factorization kernels on a prepared
/// problem directly, without full IPM iterations.
///
/// `lp_benches` uses this to time `block_factorize/k343`: the per-block
/// Cholesky factorizations and the Schur accumulation of one Newton system.
pub mod bench_support {
    use super::*;

    /// A prepared block-angular problem plus the blocked-kernel workspace,
    /// ready to factorize repeatedly.
    pub struct FactorizationBench {
        prep: Prepared,
        ws: BlockedWorkspace,
        x: Vec<f64>,
        s: Vec<f64>,
        w: Vec<f64>,
        lam: Vec<f64>,
    }

    impl FactorizationBench {
        /// Prepare `problem` under the given block partition.
        pub fn new(problem: &LpProblem, blocks: &[Vec<usize>]) -> Result<Self, LpError> {
            validate_blocks(blocks, problem.num_vars())?;
            let prep = prepare(problem, blocks)?;
            let ws = BlockedWorkspace::new(&prep);
            let n = prep.n;
            let m_in = prep.g.len();
            Ok(Self {
                prep,
                ws,
                x: vec![1.0; n],
                s: vec![1.0; n],
                w: vec![1.0; m_in],
                lam: vec![1.0; m_in],
            })
        }

        /// Perturb the barrier state pseudo-randomly (xorshift64, seeded) so
        /// repeated factorizations run on a representative mid-path iterate
        /// rather than the trivial all-ones point.  Deterministic per seed.
        pub fn perturb_state(&mut self, seed: u64) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for v in self
                .x
                .iter_mut()
                .chain(self.s.iter_mut())
                .chain(self.w.iter_mut())
                .chain(self.lam.iter_mut())
            {
                *v = 0.05 + next();
            }
        }

        /// Assemble and factorize all block Newton matrices and the Schur
        /// complement — the timed kernel.
        pub fn factor(&mut self) -> Result<(), LpError> {
            factor_blocked(
                &self.prep,
                &mut self.ws,
                &self.x,
                &self.s,
                &self.w,
                &self.lam,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimplexSolver;

    fn ipm() -> InteriorPointSolver {
        InteriorPointSolver::default()
    }

    #[test]
    fn matches_simplex_on_small_inequality_problem() {
        // max 3x + 5y (as min of the negation) from the simplex tests.
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![-3.0, -5.0]).unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        p.add_constraint(vec![(1, 2.0)], ConstraintSense::Le, 12.0)
            .unwrap();
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintSense::Le, 18.0)
            .unwrap();
        let s = ipm().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(
            (s.objective + 36.0).abs() < 1e-5,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 2.0).abs() < 1e-4);
        assert!((s.x[1] - 6.0).abs() < 1e-4);
    }

    #[test]
    fn handles_equality_constraints() {
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![1.0, 2.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 10.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 3.0)
            .unwrap();
        let s = ipm().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-5);
        assert!(p.is_feasible(&s.x, 1e-5));
    }

    #[test]
    fn transportation_problem_matches_simplex() {
        let mut p = LpProblem::new(4);
        p.set_objective_vector(vec![1.0, 3.0, 2.0, 1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 3.0)
            .unwrap();
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, 4.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        p.add_constraint(vec![(1, 1.0), (3, 1.0)], ConstraintSense::Eq, 5.0)
            .unwrap();
        let ipm_sol = ipm().solve(&p).unwrap();
        let spx_sol = SimplexSolver::new().solve(&p).unwrap();
        assert_eq!(ipm_sol.status, SolveStatus::Optimal);
        assert!((ipm_sol.objective - spx_sol.objective).abs() < 1e-5);
        assert!(p.is_feasible(&ipm_sol.x, 1e-5));
    }

    #[test]
    fn block_solver_matches_general_solver() {
        // Two independent 2-variable blocks coupled by one equality.
        // min x0 + 2x1 + 3x2 + x3
        //  s.t. x0 + x1 ≤ 4        (block 0)
        //       x2 + 2x3 ≤ 6       (block 1)
        //       x0 + x2 = 3        (coupling)
        //       x1 + x3 ≥ 1 … as −x1 − x3 ≤ −1 spans blocks, so keep it equality-free:
        //       use x1 = 1 instead (equality, couples nothing extra).
        let build = || {
            let mut p = LpProblem::new(4);
            p.set_objective_vector(vec![1.0, 2.0, 3.0, 1.0]).unwrap();
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
                .unwrap();
            p.add_constraint(vec![(2, 1.0), (3, 2.0)], ConstraintSense::Le, 6.0)
                .unwrap();
            p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 3.0)
                .unwrap();
            p.add_constraint(vec![(1, 1.0)], ConstraintSense::Eq, 1.0)
                .unwrap();
            p
        };
        let p = build();
        let general = ipm().solve(&p).unwrap();
        let block = BlockAngularSolver::new(
            vec![vec![0, 1], vec![2, 3]],
            InteriorPointOptions::default(),
        )
        .solve(&p)
        .unwrap();
        let spx = SimplexSolver::new().solve(&p).unwrap();
        assert_eq!(block.status, SolveStatus::Optimal);
        assert!((general.objective - spx.objective).abs() < 1e-5);
        assert!((block.objective - spx.objective).abs() < 1e-5);
        assert!(p.is_feasible(&block.x, 1e-5));
    }

    #[test]
    fn block_solver_rejects_spanning_inequality() {
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![1.0, 1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        let solver =
            BlockAngularSolver::new(vec![vec![0], vec![1]], InteriorPointOptions::default());
        assert!(matches!(
            solver.solve(&p),
            Err(LpError::ConstraintSpansBlocks { constraint: 0 })
        ));
    }

    #[test]
    fn block_structure_validation() {
        let mut p = LpProblem::new(3);
        p.set_objective_vector(vec![1.0; 3]).unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        // Missing variable 2.
        let solver =
            BlockAngularSolver::new(vec![vec![0], vec![1]], InteriorPointOptions::default());
        assert!(matches!(
            solver.solve(&p),
            Err(LpError::InvalidBlockStructure(_))
        ));
        // Duplicate variable.
        let solver = BlockAngularSolver::new(
            vec![vec![0, 1], vec![1, 2]],
            InteriorPointOptions::default(),
        );
        assert!(matches!(
            solver.solve(&p),
            Err(LpError::InvalidBlockStructure(_))
        ));
    }

    #[test]
    fn empty_problem_rejected() {
        let p = LpProblem::new(0);
        assert!(matches!(ipm().solve(&p), Err(LpError::EmptyProblem)));
    }

    #[test]
    fn pure_equality_problem() {
        // min x + y s.t. x + y = 2, x − y = 0 ⇒ x = y = 1.
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![1.0, 1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Eq, 0.0)
            .unwrap();
        let s = ipm().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.x[0] - 1.0).abs() < 1e-5);
        assert!((s.x[1] - 1.0).abs() < 1e-5);
    }

    /// Build the miniature obfuscation LP used by several tests: a k×k
    /// row-stochastic matrix, per-column ratio constraints, row sums = 1.
    fn stochastic_problem(k: usize, factor: f64) -> (LpProblem, Vec<Vec<usize>>) {
        let var = |i: usize, j: usize| i * k + j;
        let mut p = LpProblem::new(k * k);
        for i in 0..k {
            for j in 0..k {
                let cost = (i as f64 - j as f64).abs();
                p.set_objective(var(i, j), cost).unwrap();
            }
        }
        for i in 0..k {
            let coeffs = (0..k).map(|j| (var(i, j), 1.0)).collect();
            p.add_constraint(coeffs, ConstraintSense::Eq, 1.0).unwrap();
        }
        for j in 0..k {
            for i in 0..k {
                for l in 0..k {
                    if i != l {
                        p.add_constraint(
                            vec![(var(i, j), 1.0), (var(l, j), -factor)],
                            ConstraintSense::Le,
                            0.0,
                        )
                        .unwrap();
                    }
                }
            }
        }
        let blocks: Vec<Vec<usize>> = (0..k)
            .map(|j| (0..k).map(|i| var(i, j)).collect())
            .collect();
        (p, blocks)
    }

    #[test]
    fn stochastic_row_problem_like_obfuscation_lp() {
        // A miniature of the paper's LP: a 3×3 row-stochastic matrix (9 variables),
        // minimize a cost, subject to per-column ratio constraints and row sums = 1.
        let (p, blocks) = stochastic_problem(3, 0.5f64.exp());
        let spx = SimplexSolver::new().solve(&p).unwrap();
        let general = ipm().solve(&p).unwrap();
        let block = BlockAngularSolver::new(blocks, InteriorPointOptions::default())
            .solve(&p)
            .unwrap();
        assert_eq!(spx.status, SolveStatus::Optimal);
        assert_eq!(general.status, SolveStatus::Optimal);
        assert_eq!(block.status, SolveStatus::Optimal);
        assert!(
            (general.objective - spx.objective).abs() < 1e-4,
            "ipm {} vs simplex {}",
            general.objective,
            spx.objective
        );
        assert!(
            (block.objective - spx.objective).abs() < 1e-4,
            "block {} vs simplex {}",
            block.objective,
            spx.objective
        );
        assert!(p.is_feasible(&block.x, 1e-5));
    }

    #[test]
    fn blocked_kernels_match_reference_kernels() {
        // Same LP, both kernel strategies: the solutions must agree far below
        // the solver tolerance (the paths differ only by floating-point
        // accumulation order inside the Cholesky).
        let (p, blocks) = stochastic_problem(5, 0.8f64.exp());
        let blocked = BlockAngularSolver::new(blocks.clone(), InteriorPointOptions::default())
            .solve(&p)
            .unwrap();
        let reference = BlockAngularSolver::new(blocks, InteriorPointOptions::reference_kernels())
            .solve(&p)
            .unwrap();
        assert_eq!(blocked.status, SolveStatus::Optimal);
        assert_eq!(reference.status, SolveStatus::Optimal);
        assert!(
            (blocked.objective - reference.objective).abs() < 1e-7,
            "blocked {} vs reference {}",
            blocked.objective,
            reference.objective
        );
        for (a, b) in blocked.x.iter().zip(reference.x.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn blocked_kernels_match_reference_on_general_single_block() {
        // The general (single-block) solver exercises the blocked kernels with
        // every equality row dense in the one block.
        let mut p = LpProblem::new(4);
        p.set_objective_vector(vec![1.0, 3.0, 2.0, 1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 3.0)
            .unwrap();
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, 4.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        p.add_constraint(vec![(1, 1.0), (3, 1.0)], ConstraintSense::Eq, 5.0)
            .unwrap();
        let blocked = InteriorPointSolver::default().solve(&p).unwrap();
        let reference = InteriorPointSolver::new(InteriorPointOptions::reference_kernels())
            .solve(&p)
            .unwrap();
        assert_eq!(blocked.status, SolveStatus::Optimal);
        assert_eq!(reference.status, SolveStatus::Optimal);
        assert!((blocked.objective - reference.objective).abs() < 1e-7);
    }

    #[test]
    fn warm_start_reconverges_in_fewer_iterations() {
        let (p, blocks) = stochastic_problem(5, 0.8f64.exp());
        let solver = BlockAngularSolver::new(blocks, InteriorPointOptions::default());
        let cold = solver.solve(&p).unwrap();
        assert_eq!(cold.status, SolveStatus::Optimal);
        let warm_state = cold
            .warm
            .as_ref()
            .expect("Optimal solve captures a warm start");
        let warm = solver.solve_with_warm(&p, Some(warm_state)).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} iterations vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(a: &LpSolution, b: &LpSolution) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(bits(&a.x), bits(&b.x));
        let warm_bits = |w: &Option<WarmStart>| {
            w.as_ref()
                .map(|w| (bits(&w.x), bits(&w.y), bits(&w.s), w.mu.to_bits()))
        };
        assert_eq!(warm_bits(&a.warm), warm_bits(&b.warm));
    }

    /// Rewrite every inequality row of `prepared` to the coefficients of
    /// `target` (same pattern).
    fn update_inequalities(prepared: &mut PreparedLp, target: &LpProblem) {
        for (ci, cons) in target.constraints().iter().enumerate() {
            if cons.sense != ConstraintSense::Eq {
                prepared.update_row(ci, &cons.coeffs).unwrap();
            }
        }
        assert_eq!(prepared.problem(), target);
    }

    #[test]
    fn prepared_lp_update_matches_fresh_prepare() {
        // Prepare at one Geo-Ind-like factor, rewrite every ratio row to a
        // tighter one, then solve cold and warm: each solve must equal a
        // fresh preparation of the rebuilt problem bit for bit.
        let opts = InteriorPointOptions::default();
        let (loose, blocks) = stochastic_problem(5, 0.8f64.exp());
        let (tight, _) = stochastic_problem(5, 0.5f64.exp());
        let solver = BlockAngularSolver::new(blocks.clone(), opts);
        let mut prepared = PreparedLp::new(loose.clone(), &blocks).unwrap();
        let loose_sol = prepared.solve_with_warm(&opts, None).unwrap();
        assert_bit_identical(&loose_sol, &solver.solve(&loose).unwrap());

        update_inequalities(&mut prepared, &tight);
        assert_bit_identical(
            &prepared.solve_with_warm(&opts, None).unwrap(),
            &solver.solve(&tight).unwrap(),
        );
        let warm = loose_sol.warm.as_ref();
        assert_bit_identical(
            &prepared.solve_with_warm(&opts, warm).unwrap(),
            &solver.solve_with_warm(&tight, warm).unwrap(),
        );

        // A `≥` row goes through the negated branch of the equilibration.
        let build = |a: f64, b: f64| {
            let mut p = LpProblem::new(4);
            p.set_objective_vector(vec![1.0, 2.0, 3.0, 1.0]).unwrap();
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
                .unwrap();
            p.add_constraint(vec![(2, a), (3, b)], ConstraintSense::Ge, 1.5)
                .unwrap();
            p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 3.0)
                .unwrap();
            p
        };
        let blocks = vec![vec![0, 1], vec![2, 3]];
        let mut prepared = PreparedLp::new(build(1.0, 2.0), &blocks).unwrap();
        update_inequalities(&mut prepared, &build(3.0, -0.5));
        assert_bit_identical(
            &prepared.solve_with_warm(&opts, None).unwrap(),
            &BlockAngularSolver::new(blocks, opts)
                .solve(&build(3.0, -0.5))
                .unwrap(),
        );
    }

    #[test]
    fn prepared_lp_refuses_equality_and_pattern_updates() {
        let (p, blocks) = stochastic_problem(3, 0.5f64.exp());
        let mut prepared = PreparedLp::new(p.clone(), &blocks).unwrap();
        // Rows 0..3 are the row-sum equalities; row 3 is the first ratio row.
        assert_eq!(
            prepared.update_row(0, &p.constraints()[0].coeffs),
            Err(LpError::EqualityRowUpdate { constraint: 0 })
        );
        let row = p.constraints()[3].coeffs.clone();
        let mismatch = Err(LpError::RowPatternMismatch { constraint: 3 });
        let swapped = vec![row[1], row[0]];
        assert_eq!(prepared.update_row(3, &swapped), mismatch);
        assert_eq!(prepared.update_row(3, &row[..1]), mismatch);
        let moved = vec![row[0], (row[1].0 + 1, row[1].1)];
        assert_eq!(prepared.update_row(3, &moved), mismatch);
        let nan = vec![row[0], (row[1].0, f64::NAN)];
        assert_eq!(
            prepared.update_row(3, &nan),
            Err(LpError::NonFiniteCoefficient)
        );
        let count = p.num_constraints();
        assert_eq!(
            prepared.update_row(count, &row),
            Err(LpError::ConstraintOutOfRange {
                index: count,
                num_constraints: count
            })
        );
        // Every refusal left the LP as it was.
        assert_eq!(prepared.problem(), &p);
        let opts = InteriorPointOptions::default();
        assert_bit_identical(
            &prepared.solve_with_warm(&opts, None).unwrap(),
            &BlockAngularSolver::new(blocks, opts).solve(&p).unwrap(),
        );
    }

    #[test]
    fn invalid_warm_start_is_ignored() {
        let (p, blocks) = stochastic_problem(4, 0.6f64.exp());
        let solver = BlockAngularSolver::new(blocks, InteriorPointOptions::default());
        let cold = solver.solve(&p).unwrap();
        let bogus = WarmStart {
            x: vec![1.0; 3], // wrong length
            y: Vec::new(),
            s: vec![1.0; 3],
            mu: 1.0,
        };
        let with_bogus = solver.solve_with_warm(&p, Some(&bogus)).unwrap();
        assert_eq!(with_bogus.status, cold.status);
        assert_eq!(with_bogus.iterations, cold.iterations);
        assert_eq!(with_bogus.objective, cold.objective);
    }
}
