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
//!   assembly.  The coupling matrix `B_b = E_bᵀ` of each block (the slice of
//!   the equality rows that touches block `b`) is extracted **once** per
//!   preparation, its columns ordered by first nonzero — the sparsity pattern
//!   is static across interior-point iterations, only the numeric values of
//!   the Newton matrix change.  Each iteration then solves `X = L_b⁻¹ B_b` row
//!   by row for all coupling columns at once (row `i` touches only the prefix
//!   of columns already started), accumulates the lower triangle of `XᵀX`
//!   into a per-block buffer with contiguous rank updates, and scatter-adds it
//!   into the Schur matrix — instead of forming the dense `n_b × m_eq` product
//!   `M_b⁻¹ E_bᵀ` and a dense `m_eq² · n_b` triple loop.  All per-block factor
//!   and scratch buffers live in a workspace that is allocated once and
//!   recycled across iterations, and so does every vector of the iteration
//!   itself.
//! * [`KernelStrategy::Reference`] — the original scalar kernels (textbook
//!   left-looking Cholesky, per-column multi-RHS solves, dense Schur
//!   accumulation), kept verbatim so the perf-gated benchmarks can measure the
//!   speedup and the agreement tests can assert both strategies produce the
//!   same solutions.
//!
//! For the paper's K-location obfuscation LP (K² variables, K per-column
//! blocks, K row-stochasticity equalities) the reference Schur assembly costs
//! about `2·K³` multiply-adds per block and iteration: a full solve per
//! coupling column plus the dense triple loop.  The batched kernel costs about
//! `K³/3` — `K³/6` for the triangular solve and `K³/6` for the lower triangle
//! of `XᵀX` — because every coupling column has exactly one nonzero, one row
//! below the previous column's, so `X` is lower triangular.
//!
//! Both strategies run every kernel on the calling thread.  The caller owns
//! the parallelism: the serving stack solves one LP per subtree and spreads
//! those independent solves over a pool with one worker per core, so a
//! second fan-out inside each solve would only oversubscribe the cores.

use crate::{
    dense::{DenseMatrix, FLUSH_THRESHOLD},
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

/// The coupling matrix `B_b = E_bᵀ` of one block: the slice of the equality
/// rows that touches block `b`, as `n_b × m_b` with one column per such row.
///
/// Extracted once per preparation — the pattern is static across
/// interior-point iterations — and consumed every iteration by the Schur
/// kernel and the Newton solve.  The columns are ordered by their first
/// nonzero, so the columns that have started by local row `i` are a prefix
/// of length `started[i]`, and the row-oriented solve `L_b⁻¹ B_b` touches
/// only that prefix.  The nonzeros are stored by row (CSR over local rows).
struct CouplingBlock {
    /// Equality row of each column, in column order.
    eq_rows: Vec<usize>,
    /// Number of columns whose first nonzero sits at a local row `≤ i`.
    started: Vec<usize>,
    /// Row `i` owns `entries[ptr[i]..ptr[i + 1]]`.
    ptr: Vec<usize>,
    /// `(column, coefficient)` nonzeros, ascending by column within a row.
    entries: Vec<(usize, f64)>,
}

impl CouplingBlock {
    /// Extract block `b`'s coupling matrix from the equality rows `active`
    /// that touch it.
    fn new(
        e: &SparseRows,
        active: &[usize],
        b: usize,
        nb: usize,
        var_block: &[usize],
        var_local: &[usize],
    ) -> Self {
        let columns: Vec<Vec<(usize, f64)>> = active
            .iter()
            .map(|&eq_row| {
                e.idx(eq_row)
                    .iter()
                    .zip(e.val(eq_row))
                    .filter(|(&v, _)| var_block[v] == b)
                    .map(|(&v, &a)| (var_local[v], a))
                    .collect()
            })
            .collect();
        let first = |col: &[(usize, f64)]| col.iter().map(|&(l, _)| l).min().unwrap_or(0);
        let mut order: Vec<usize> = (0..active.len()).collect();
        order.sort_by_key(|&a| first(&columns[a]));
        let mut started = vec![0; nb];
        let mut rows = vec![Vec::new(); nb];
        for (p, &a) in order.iter().enumerate() {
            started[first(&columns[a])] += 1;
            for &(l, coeff) in &columns[a] {
                rows[l].push((p, coeff));
            }
        }
        for i in 1..nb {
            started[i] += started[i - 1];
        }
        let mut ptr = vec![0];
        let mut entries = Vec::new();
        for row in rows {
            entries.extend(row);
            ptr.push(entries.len());
        }
        Self {
            eq_rows: order.iter().map(|&a| active[a]).collect(),
            started,
            ptr,
            entries,
        }
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.ptr[i]..self.ptr[i + 1]]
    }
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
    /// equality rows touching each block, ascending (reference kernels)
    eq_by_block: Vec<Vec<usize>>,
    /// coupling matrix `E_bᵀ` of each block (blocked kernels)
    coupling_by_block: Vec<CouplingBlock>,
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
    let coupling_by_block = eq_by_block
        .iter()
        .enumerate()
        .map(|(b, active)| {
            CouplingBlock::new(&e, active, b, blocks[b].len(), &var_block, &var_local)
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
/// the Schur matrix and the Schur kernel's two panels are overwritten each
/// iteration instead of reallocated (the reference path, kept for
/// comparison, reallocates ~2·n² doubles per iteration).
struct BlockedWorkspace {
    /// Cholesky factors of the per-block Newton matrices (persistent storage).
    factors: Vec<DenseMatrix>,
    /// Lower triangle of the Schur complement `E M⁻¹ Eᵀ` (+ regularization).
    schur: DenseMatrix,
    /// Whether equality rows exist (i.e. `schur` is meaningful).
    has_eq: bool,
    /// Row-major `X = L_b⁻¹ B_b` of the current block, row stride `m_b`.
    x_panel: Vec<f64>,
    /// Lower triangle of the current block's `XᵀX`, row-major `m_b × m_b`.
    s_local: Vec<f64>,
}

impl BlockedWorkspace {
    fn new(prep: &Prepared) -> Self {
        let m_eq = prep.e.len();
        let max_nb = prep.blocks.iter().map(Vec::len).max().unwrap_or(0);
        let max_m = prep.eq_by_block.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            factors: prep
                .blocks
                .iter()
                .map(|b| DenseMatrix::zeros(b.len(), b.len()))
                .collect(),
            schur: DenseMatrix::zeros(m_eq, m_eq),
            has_eq: m_eq > 0,
            x_panel: vec![0.0; max_nb * max_m],
            s_local: vec![0.0; max_m * max_m],
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

/// Accumulate block `b`'s Schur contribution `B_bᵀ M_b⁻¹ B_b = XᵀX`, with
/// `X = L_b⁻¹ B_b`, into the lower triangle of the workspace's Schur matrix.
///
/// 1. **Batched triangular solve.**  `X` is solved row by row for all
///    coupling columns at once.  The columns are ordered by first nonzero
///    ([`CouplingBlock`]), so row `i` of `X` is nonzero only in its first
///    `started[i]` columns, and `X[i,:] = (B[i,:] − Σ_{k<i} L[i,k]·X[k,:]) /
///    L[i,i]` is a sequence of contiguous axpys over those prefixes, four rows
///    `k` per pass over `X[i,:]`.  Entries below [`FLUSH_THRESHOLD`] are
///    flushed to exact zero as each row is finished: factors of diagonally
///    dominant Newton matrices decay geometrically, and subnormal operands
///    would take the CPU's slow microcoded path in every later row.
/// 2. **Rank accumulation.**  `S_loc += X[i,:]ᵀ X[i,:]` over the rows,
///    lower triangle only, as contiguous updates of the block's `m_b × m_b`
///    buffer, four rows per pass over it.
/// 3. **Scatter.**  `S_loc` is added into the Schur matrix through the
///    columns' equality rows.
///
/// Grouping rows changes memory traffic, not arithmetic: every entry still
/// accumulates its terms one row at a time, in row order.
fn accumulate_schur_block(prep: &Prepared, b: usize, ws: &mut BlockedWorkspace) {
    let coupling = &prep.coupling_by_block[b];
    let m = coupling.eq_rows.len();
    if m == 0 {
        return;
    }
    let nb = prep.blocks[b].len();
    let started = &coupling.started;
    let l = &ws.factors[b];
    let x = &mut ws.x_panel[..nb * m];
    // Rows above the first column's first nonzero are zero in X and never
    // stored; every stored row is zero past its started prefix, so a group
    // of rows may share the longest prefix of the group.
    let top = started.iter().position(|&st| st > 0).unwrap_or(nb);
    for i in top..nb {
        let (solved, rest) = x.split_at_mut(i * m);
        let xi = &mut rest[..m];
        xi.fill(0.0);
        for &(p, coeff) in coupling.row(i) {
            xi[p] = coeff;
        }
        let li = l.row(i);
        let mut k = top;
        while k + 4 <= i {
            let (l0, l1, l2, l3) = (li[k], li[k + 1], li[k + 2], li[k + 3]);
            if l0 != 0.0 || l1 != 0.0 || l2 != 0.0 || l3 != 0.0 {
                let len = started[k + 3];
                let row = |r: usize| &solved[r * m..r * m + len];
                let (y0, y1, y2, y3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
                for ((((v, &a0), &a1), &a2), &a3) in
                    xi[..len].iter_mut().zip(y0).zip(y1).zip(y2).zip(y3)
                {
                    *v = *v - l0 * a0 - l1 * a1 - l2 * a2 - l3 * a3;
                }
            }
            k += 4;
        }
        for k in k..i {
            let lik = li[k];
            if lik != 0.0 {
                let len = started[k];
                for (v, &y) in xi[..len].iter_mut().zip(&solved[k * m..k * m + len]) {
                    *v -= lik * y;
                }
            }
        }
        let d = li[i];
        for v in xi[..started[i]].iter_mut() {
            *v /= d;
            if v.abs() < FLUSH_THRESHOLD {
                *v = 0.0;
            }
        }
    }

    let s_local = &mut ws.s_local[..m * m];
    s_local.fill(0.0);
    let mut i = top;
    while i + 4 <= nb {
        let len = started[i + 3];
        let row = |r: usize| &x[r * m..r * m + len];
        let (y0, y1, y2, y3) = (row(i), row(i + 1), row(i + 2), row(i + 3));
        for a in 0..len {
            let (c0, c1, c2, c3) = (y0[a], y1[a], y2[a], y3[a]);
            if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                continue;
            }
            let end = a + 1;
            for ((((v, &a0), &a1), &a2), &a3) in s_local[a * m..a * m + end]
                .iter_mut()
                .zip(&y0[..end])
                .zip(&y1[..end])
                .zip(&y2[..end])
                .zip(&y3[..end])
            {
                *v = *v + c0 * a0 + c1 * a1 + c2 * a2 + c3 * a3;
            }
        }
        i += 4;
    }
    for i in i..nb {
        let xi = &x[i * m..i * m + started[i]];
        for (a, &xa) in xi.iter().enumerate() {
            if xa != 0.0 {
                for (v, &y) in s_local[a * m..a * m + a + 1].iter_mut().zip(&xi[..=a]) {
                    *v += xa * y;
                }
            }
        }
    }
    for (a, &eq_a) in coupling.eq_rows.iter().enumerate() {
        for (c, &eq_c) in coupling.eq_rows[..=a].iter().enumerate() {
            let (r, col) = if eq_a >= eq_c {
                (eq_a, eq_c)
            } else {
                (eq_c, eq_a)
            };
            ws.schur[(r, col)] += s_local[a * m + c];
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

    // Batched Schur assembly: S = Σ_b E_b M_b⁻¹ E_bᵀ = Σ_b X_bᵀ X_b.
    ws.schur.fill(0.0);
    for b in 0..prep.blocks.len() {
        accumulate_schur_block(prep, b, ws);
    }
    for i in 0..prep.e.len() {
        ws.schur.add_diagonal(i, REGULARIZATION.max(1e-12));
    }
    ws.schur.cholesky_in_place(REGULARIZATION)
}

/// Scratch of the blocked Newton solve, allocated once per solve: the
/// intermediate `t = M⁻¹ rhs1` and one block-local right-hand side.
struct NewtonScratch {
    t: Vec<f64>,
    local: Vec<f64>,
}

impl NewtonScratch {
    fn new(prep: &Prepared) -> Self {
        let max_nb = prep.blocks.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            t: vec![0.0; prep.n],
            local: vec![0.0; max_nb],
        }
    }
}

/// Newton solve against the blocked factorization, writing `dx` (length `n`)
/// and `dmu` (length `m_eq`) in place.
fn newton_solve_blocked(
    prep: &Prepared,
    ws: &BlockedWorkspace,
    scratch: &mut NewtonScratch,
    rhs1: &[f64],
    r_p2: &[f64],
    dx: &mut [f64],
    dmu: &mut [f64],
) {
    let NewtonScratch { t, local } = scratch;
    // t = M⁻¹ rhs1, blockwise, in-place solves on the block-local buffer.
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
    if prep.e.len() == 0 {
        dx.copy_from_slice(t);
        return;
    }
    // dmu = S⁻¹ (E t − r_p2)
    for (ri, d) in dmu.iter_mut().enumerate() {
        *d = prep.e.dot(ri, t) - r_p2[ri];
    }
    ws.schur.cholesky_solve_into(dmu);
    // dx = M⁻¹ (rhs1 − Eᵀ dmu), blockwise: B_b·dmu through the sparse coupling
    // rows, one solve per block — the dense `M_b⁻¹ E_bᵀ` product of the
    // reference path is never materialized.
    for (b, block) in prep.blocks.iter().enumerate() {
        let coupling = &prep.coupling_by_block[b];
        let u = &mut local[..block.len()];
        for (l, v) in u.iter_mut().enumerate() {
            *v = 0.0;
            for &(p, coeff) in coupling.row(l) {
                *v += coeff * dmu[coupling.eq_rows[p]];
            }
        }
        ws.factors[b].cholesky_solve_into(u);
        for (l, &v) in block.iter().enumerate() {
            dx[v] = t[v] - u[l];
        }
    }
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
    /// Solve one Newton system, writing `dx` and `dmu` in place.
    fn newton_solve_into(
        &self,
        prep: &Prepared,
        scratch: &mut NewtonScratch,
        rhs1: &[f64],
        r_p2: &[f64],
        dx: &mut [f64],
        dmu: &mut [f64],
    ) {
        match self {
            Factorization::Blocked(ws) => {
                newton_solve_blocked(prep, ws, scratch, rhs1, r_p2, dx, dmu)
            }
            Factorization::Reference(factors) => {
                let (x, mu) = newton_solve_reference(prep, factors, rhs1, r_p2);
                dx.copy_from_slice(&x);
                dmu.copy_from_slice(&mu);
            }
        }
    }
}

/// A Newton direction in the primal (`x`, `w`) and dual (`lam`, `s`)
/// barrier variables; the equality multipliers' part is kept beside it.
struct Direction {
    x: Vec<f64>,
    w: Vec<f64>,
    lam: Vec<f64>,
    s: Vec<f64>,
}

impl Direction {
    fn zeros(n: usize, m_in: usize) -> Self {
        Self {
            x: vec![0.0; n],
            w: vec![0.0; m_in],
            lam: vec![0.0; m_in],
            s: vec![0.0; n],
        }
    }
}

/// Shrink `alpha` to the largest step along `dv` that keeps `v + alpha·dv`
/// non-negative (one element of a step-to-boundary minimum).
///
/// Written as a select rather than a branch: the sign of `dv` is
/// unpredictable along a direction, and `alpha.min(∞)` leaves `alpha` as it
/// is.
#[inline]
fn shrink_step(alpha: &mut f64, v: f64, dv: f64) {
    let limit = if dv < 0.0 { -v / dv } else { f64::INFINITY };
    *alpha = alpha.min(limit);
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

    // Every per-iteration vector is allocated once here and overwritten in
    // place each iteration.
    let mut r_p1 = vec![0.0; m_in]; // h − Gx − w
    let mut r_p2 = vec![0.0; m_eq]; // f − Ex
    let mut resid_dual = vec![0.0; n]; // c + Gᵀλ + Eᵀμ − s
    let mut rhs1 = vec![0.0; n];
    let mut rc1 = vec![0.0; n];
    let mut rc2 = vec![0.0; m_in];
    let mut t1 = vec![0.0; n];
    let mut t2 = vec![0.0; m_in];
    // The search direction, and a trial one: first the affine predictor, then
    // each Gondzio candidate, swapped in when accepted.
    let mut dir = Direction::zeros(n, m_in);
    let mut trial = Direction::zeros(n, m_in);
    let mut ddx = vec![0.0; n];
    let mut dmu = vec![0.0; m_eq];
    let mut ddmu = vec![0.0; m_eq];
    let zeros_eq = vec![0.0; m_eq];
    let mut scratch = NewtonScratch::new(prep);

    for iter in 0..opts.max_iterations {
        iterations = iter + 1;

        // Residuals, each inequality row read once for both `r_p1` and the
        // `Gᵀλ` scatter.
        resid_dual.copy_from_slice(&prep.c);
        for ri in 0..m_in {
            r_p1[ri] = prep.h[ri] - prep.g.dot(ri, &x) - w[ri];
            prep.g.axpy_into(ri, lam[ri], &mut resid_dual);
        }
        for (ri, r) in r_p2.iter_mut().enumerate() {
            *r = prep.f[ri] - prep.e.dot(ri, &x);
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

        // rhs1 = −resid_dual + Gᵀ((λ/w)·r_p1 − rc2/w) + rc1/x
        let build_rhs1 = |rc1: &[f64], rc2: &[f64], rhs1: &mut [f64]| {
            for (r, &v) in rhs1.iter_mut().zip(&resid_dual) {
                *r = -v;
            }
            for ri in 0..m_in {
                let u = (lam[ri] / w[ri]) * r_p1[ri] - rc2[ri] / w[ri];
                prep.g.axpy_into(ri, u, rhs1);
            }
            for j in 0..n {
                rhs1[j] += rc1[j] / x[j];
            }
        };
        // Complete a direction from its `dx`: dw = r_p1 − G·dx,
        // dlam = (rc2 − λ∘dw)/w and ds = (rc1 − s∘dx)/x, each row read once
        // for both its entries and the steps to the boundary.  Returns the
        // largest primal and dual steps that keep the iterate non-negative.
        let complete_direction = |rc1: &[f64], rc2: &[f64], d: &mut Direction| {
            let (mut step_x, mut step_w, mut step_lam, mut step_s) = (1.0, 1.0, 1.0, 1.0);
            for j in 0..n {
                d.s[j] = (rc1[j] - s[j] * d.x[j]) / x[j];
                shrink_step(&mut step_x, x[j], d.x[j]);
                shrink_step(&mut step_s, s[j], d.s[j]);
            }
            for ri in 0..m_in {
                d.w[ri] = r_p1[ri] - prep.g.dot(ri, &d.x);
                d.lam[ri] = (rc2[ri] - lam[ri] * d.w[ri]) / w[ri];
                shrink_step(&mut step_w, w[ri], d.w[ri]);
                shrink_step(&mut step_lam, lam[ri], d.lam[ri]);
            }
            (f64::min(step_x, step_w), f64::min(step_s, step_lam))
        };

        // ---- Affine (predictor) direction: σ = 0, no corrector. ----
        for j in 0..n {
            rc1[j] = -x[j] * s[j];
        }
        for ri in 0..m_in {
            rc2[ri] = -w[ri] * lam[ri];
        }
        build_rhs1(&rc1, &rc2, &mut rhs1);
        // The affine direction's `dmu` is never used; `ddmu` takes it.
        factorization.newton_solve_into(prep, &mut scratch, &rhs1, &r_p2, &mut trial.x, &mut ddmu);
        let (alpha_p_aff, alpha_d_aff) = complete_direction(&rc1, &rc2, &mut trial);
        let aff = &trial;

        // Mehrotra centering parameter.
        let mut gap_aff = 0.0;
        for j in 0..n {
            gap_aff += (x[j] + alpha_p_aff * aff.x[j]) * (s[j] + alpha_d_aff * aff.s[j]);
        }
        for ri in 0..m_in {
            gap_aff += (w[ri] + alpha_p_aff * aff.w[ri]) * (lam[ri] + alpha_d_aff * aff.lam[ri]);
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
        for j in 0..n {
            rc1[j] = target_mu - x[j] * s[j] - aff.x[j] * aff.s[j];
        }
        for ri in 0..m_in {
            rc2[ri] = target_mu - w[ri] * lam[ri] - aff.w[ri] * aff.lam[ri];
        }
        build_rhs1(&rc1, &rc2, &mut rhs1);
        factorization.newton_solve_into(prep, &mut scratch, &rhs1, &r_p2, &mut dir.x, &mut dmu);
        let (step_p, step_d) = complete_direction(&rc1, &rc2, &mut dir);
        let mut alpha_p = (STEP_FRACTION * step_p).min(1.0);
        let mut alpha_d = (STEP_FRACTION * step_d).min(1.0);

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
            // Newton system with zero residual blocks and the band violations
            // as the complementarity targets: each inequality's band term is
            // scattered into `rhs1` as soon as it is measured.
            let mut any_outlier = false;
            rhs1.fill(0.0);
            for ri in 0..m_in {
                t2[ri] = if w[ri] <= BOUNDARY {
                    0.0
                } else {
                    band((w[ri] + trial_p * dir.w[ri]) * (lam[ri] + trial_d * dir.lam[ri]))
                };
                if t2[ri] != 0.0 {
                    any_outlier = true;
                    prep.g.axpy_into(ri, -t2[ri] / w[ri], &mut rhs1);
                }
            }
            for j in 0..n {
                t1[j] = if x[j] <= BOUNDARY {
                    0.0
                } else {
                    band((x[j] + trial_p * dir.x[j]) * (s[j] + trial_d * dir.s[j]))
                };
                any_outlier |= t1[j] != 0.0;
                rhs1[j] += t1[j] / x[j];
            }
            if !any_outlier {
                break;
            }
            factorization.newton_solve_into(
                prep,
                &mut scratch,
                &rhs1,
                &zeros_eq,
                &mut ddx,
                &mut ddmu,
            );
            // The enlarged candidate, with its steps and finiteness measured
            // in the same pass.
            let (mut step_x, mut step_w, mut step_lam, mut step_s) = (1.0, 1.0, 1.0, 1.0);
            let mut finite = true;
            for j in 0..n {
                trial.x[j] = dir.x[j] + ddx[j];
                trial.s[j] = dir.s[j] + (t1[j] - s[j] * ddx[j]) / x[j];
                shrink_step(&mut step_x, x[j], trial.x[j]);
                shrink_step(&mut step_s, s[j], trial.s[j]);
                finite &= trial.x[j].is_finite() & trial.s[j].is_finite();
            }
            for ri in 0..m_in {
                let ddw = -prep.g.dot(ri, &ddx);
                trial.w[ri] = dir.w[ri] + ddw;
                trial.lam[ri] = dir.lam[ri] + (t2[ri] - lam[ri] * ddw) / w[ri];
                shrink_step(&mut step_w, w[ri], trial.w[ri]);
                shrink_step(&mut step_lam, lam[ri], trial.lam[ri]);
                finite &= trial.w[ri].is_finite() & trial.lam[ri].is_finite();
            }
            let ap = (STEP_FRACTION * f64::min(step_x, step_w)).min(1.0);
            let ad = (STEP_FRACTION * f64::min(step_s, step_lam)).min(1.0);
            if !finite || ap + ad < alpha_p + alpha_d + 0.02 {
                break;
            }
            std::mem::swap(&mut dir, &mut trial);
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
            x[j] = (x[j] + alpha_p * dir.x[j]).max(FLOOR);
            s[j] = (s[j] + alpha_d * dir.s[j]).max(FLOOR);
        }
        for ri in 0..m_in {
            w[ri] = (w[ri] + alpha_p * dir.w[ri]).max(FLOOR);
            lam[ri] = (lam[ri] + alpha_d * dir.lam[ri]).max(FLOOR);
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

    /// A random feasible, bounded block-angular LP whose equality rows make
    /// the blocked Schur kernel take its general path: blocks are scattered
    /// over the variable indices, equality rows touch non-contiguous sets of
    /// blocks and a block in several variables, and in block 0 the coupling
    /// column of equality row 1 starts before that of row 0.
    fn random_block_angular_lp(seed: u64) -> (LpProblem, Vec<Vec<usize>>) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes: Vec<usize> = (0..rng.gen_range(3..=5))
            .map(|_| rng.gen_range(3..=6))
            .collect();
        let n = sizes.iter().sum();
        let mut vars: Vec<usize> = (0..n).collect();
        vars.shuffle(&mut rng);
        let mut blocks = Vec::new();
        let mut next = 0;
        for &nb in &sizes {
            blocks.push(vars[next..next + nb].to_vec());
            next += nb;
        }
        let last = blocks.len() - 1;
        // Every constraint holds strictly at x0.
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.0)).collect();
        let mut p = LpProblem::new(n);
        p.set_objective_vector((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .unwrap();
        let coeff = |rng: &mut StdRng| {
            let a = rng.gen_range(0.5..2.0);
            if rng.gen_bool(0.3) {
                -a
            } else {
                a
            }
        };
        let random_locals = |rng: &mut StdRng, nb: usize, count: usize| {
            let mut locals: Vec<usize> = (0..nb).collect();
            locals.shuffle(rng);
            locals.truncate(count);
            locals
        };
        let lhs_at_x0 = |row: &[(usize, f64)]| row.iter().map(|&(j, a)| a * x0[j]).sum::<f64>();

        let mut eq_rows: Vec<Vec<(usize, usize)>> = vec![
            // Row 0: block 0 through its last two variables, and block 2.
            vec![(0, sizes[0] - 2), (0, sizes[0] - 1)],
            // Row 1: block 0 through its first two variables, block 1 and
            // the last block.
            vec![(0, 0), (0, 1)],
        ];
        eq_rows[0].extend(
            random_locals(&mut rng, sizes[2], 2)
                .into_iter()
                .map(|l| (2, l)),
        );
        eq_rows[1].extend(
            random_locals(&mut rng, sizes[1], 2)
                .into_iter()
                .map(|l| (1, l)),
        );
        eq_rows[1].extend(
            random_locals(&mut rng, sizes[last], 1)
                .into_iter()
                .map(|l| (last, l)),
        );
        for _ in 0..rng.gen_range(0..=2) {
            let mut row = Vec::new();
            for (b, &nb) in sizes.iter().enumerate() {
                if rng.gen_bool(0.5) || (b == last && row.is_empty()) {
                    let count = rng.gen_range(1..=nb);
                    row.extend(
                        random_locals(&mut rng, nb, count)
                            .into_iter()
                            .map(|l| (b, l)),
                    );
                }
            }
            eq_rows.push(row);
        }
        for row in eq_rows {
            let row: Vec<(usize, f64)> = row
                .into_iter()
                .map(|(b, l)| (blocks[b][l], coeff(&mut rng)))
                .collect();
            let rhs = lhs_at_x0(&row);
            p.add_constraint(row, ConstraintSense::Eq, rhs).unwrap();
        }
        for (b, block) in blocks.iter().enumerate() {
            // A cap on the block's sum keeps the LP bounded.
            let cap: Vec<(usize, f64)> = block.iter().map(|&v| (v, 1.0)).collect();
            let rhs = lhs_at_x0(&cap) + rng.gen_range(0.5..1.5);
            p.add_constraint(cap, ConstraintSense::Le, rhs).unwrap();
            for _ in 0..rng.gen_range(1..=2) {
                let count = rng.gen_range(1..=sizes[b]);
                let row: Vec<(usize, f64)> = random_locals(&mut rng, sizes[b], count)
                    .into_iter()
                    .map(|l| (block[l], coeff(&mut rng)))
                    .collect();
                let slack = rng.gen_range(0.2..1.0);
                if rng.gen_bool(0.5) {
                    let rhs = lhs_at_x0(&row) + slack;
                    p.add_constraint(row, ConstraintSense::Le, rhs).unwrap();
                } else {
                    let rhs = lhs_at_x0(&row) - slack;
                    p.add_constraint(row, ConstraintSense::Ge, rhs).unwrap();
                }
            }
        }
        (p, blocks)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The blocked kernels agree with the reference kernels on random
        /// block-angular LPs whose coupling is general (see
        /// `random_block_angular_lp`).
        #[test]
        fn prop_blocked_kernels_match_reference_on_general_coupling(seed in 0u64..u64::MAX) {
            let (p, blocks) = random_block_angular_lp(seed);
            let prep = prepare(&p, &blocks).unwrap();
            // In block 0, equality row 0's two-entry column sorts after row 1's.
            let block0 = &prep.coupling_by_block[0];
            let column = |eq_row: usize| block0.eq_rows.iter().position(|&r| r == eq_row).unwrap();
            proptest::prop_assert!(column(1) < column(0));
            let row0_entries = block0.entries.iter().filter(|&&(c, _)| c == column(0)).count();
            proptest::prop_assert_eq!(row0_entries, 2);

            let blocked = BlockAngularSolver::new(blocks.clone(), InteriorPointOptions::default())
                .solve(&p)
                .unwrap();
            let reference =
                BlockAngularSolver::new(blocks, InteriorPointOptions::reference_kernels())
                    .solve(&p)
                    .unwrap();
            proptest::prop_assert_eq!(blocked.status, SolveStatus::Optimal);
            proptest::prop_assert_eq!(reference.status, SolveStatus::Optimal);
            proptest::prop_assert!(
                (blocked.objective - reference.objective).abs() < 1e-6,
                "seed {}: blocked {} vs reference {}", seed, blocked.objective, reference.objective
            );
            for (j, (a, b)) in blocked.x.iter().zip(&reference.x).enumerate() {
                proptest::prop_assert!((a - b).abs() < 1e-6, "seed {} x[{}]: {} vs {}", seed, j, a, b);
            }
        }
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
