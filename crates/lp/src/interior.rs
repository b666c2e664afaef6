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
//! equilibrated to unit max-absolute coefficient and split into the
//! inequality (`G`) and equality (`E`) sets, and the coupling columns of the
//! Schur complement are extracted.  [`BlockAngularSolver::solve_with_warm`]
//! prepares and then runs the one IPM loop.  [`PreparedLp`] keeps the
//! prepared form, and the IPM's buffers, across solves: Algorithm 1's
//! refinements change only inequality coefficients, which
//! [`PreparedLp::update_constraint`] rewrites in place with the same
//! equilibration arithmetic, so a chain of re-solves skips the rebuild and
//! still runs exactly the floating-point operations of a fresh preparation.
//!
//! # Inequality rows as runs
//!
//! The Geo-Ind constraints `z_{i,l} ≤ e^{ε·d_{i,j}}·z_{j,l}` repeat one bound
//! for every reported column `l`: at K = 49 the 21,756 inequality rows are
//! 444 constrained pairs, each repeated K times.  The builder states each
//! pair once, as one [`crate::Constraint`] of K copies whose copy `c`
//! shifts every variable index by `c`, and `G` is stored as *runs*: a
//! constraint whose copy `c` lies in the block after copy `c − 1`, at copy
//! 0's block-local positions, is one run of K rows.  A run keeps its
//! variable indices, block-local positions, coefficients, right-hand side
//! and first block once, so every pass over `G` — the residual with its
//! `Gᵀλ` scatter, the Newton right-hand side, each direction's completion,
//! the Gondzio band and candidate, the warm-start slacks and the block
//! assembly — sweeps a run's pattern entry as one coefficient against the K
//! contiguous variables it multiplies.  The copies of any other constraint
//! (a generic LP's one-copy rows, copies inside one block, blocks in
//! another order) are runs of length one, on the same code path.
//!
//! The sweeps are bit-identical to a row-by-row evaluation.  Each row's dot
//! product still sums its terms in pattern order, and each row's arithmetic is
//! unchanged.  A scatter must also add every variable's terms in row order,
//! and it does: the copies of a run lie in distinct blocks, so they share no
//! variable, and each variable takes at most one term per run while the runs
//! are swept in row order.  The same holds for the block assembly, where a
//! block holds at most one copy of each run.
//!
//! # Kernel strategies
//!
//! Two interchangeable linear-algebra backends drive the Newton systems (see
//! [`KernelStrategy`]):
//!
//! * [`KernelStrategy::Blocked`] (default) — the Newton blocks assembled,
//!   factored, inverted and solved in *lane groups*.  Consecutive blocks of
//!   one shape (the same size, equality rows and coupling pattern) form
//!   groups of 8, and the rest of such a stretch one group padded to 8
//!   lanes, or a lone block at 1 lane: the obfuscation LP's K = 49 column
//!   blocks are six groups of 8 and one leftover block, its K = 7 blocks
//!   one group of 8 lanes with one lane of padding.  A group is stored
//!   interleaved: entry `(i, j)` of its block `first + l` sits at
//!   `(i·n + j)·L + l`, so each scalar step of a per-block kernel becomes one
//!   L-wide operation, on AVX-512F, AVX2 or plain `f64` lanes as the CPU
//!   allows (the lane kernels in `dense.rs`).  Each iteration:
//!   - the assembly writes the lower triangles straight into the lanes: a
//!     run's copies lie in consecutive blocks, so the copies that fall in one
//!     group are consecutive lanes;
//!   - each group is factored, then its Schur panels are formed: the
//!     coupling matrix `B_b = E_bᵀ` of each block (the slice of the
//!     equality rows that touches it) is extracted **once** per preparation
//!     with its columns ordered by first nonzero, `X = L_b⁻¹ B_b` is solved
//!     row by row for all coupling columns at once (row `i` touches only the
//!     prefix of columns already started), and the lower triangle of `XᵀX`
//!     is accumulated and scattered into the Schur matrix — instead of
//!     forming the dense `n_b × m_eq` product `M_b⁻¹ E_bᵀ` and a dense
//!     `m_eq² · n_b` triple loop;
//!   - the Newton solves gather a group's right-hand sides into lanes (at
//!     K = 49 a group's lanes are L contiguous variables), solve them in
//!     one pass and scatter the solutions back.
//!
//!   Every forest stays bit-identical to the per-block kernels, because
//!   each lane repeats its block's scalar arithmetic in the same order: the
//!   dot products keep their four accumulators per lane; where a per-block
//!   kernel skipped an update because its multipliers were zero, a lane
//!   with zero multipliers keeps its old value by a select (a skipped
//!   update is not always bit-neutral); the flush and the `d < reg` pivot
//!   rule apply per lane; and a Schur entry takes at most one term per
//!   block, added in block order.  Rust never contracts `a·b + c` into a
//!   fused multiply-add, so every instruction set rounds alike.  The
//!   per-block kernels are kept in the tests as the lane kernels' oracle.
//!   All factor and scratch buffers live in a workspace that is allocated
//!   once and recycled across iterations, and so does every vector of the
//!   iteration itself: after the first, an iteration allocates nothing.
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
    dense::{
        cholesky_lanes, cholesky_solve_lanes, schur_panel_lanes, DenseMatrix, Isa, LaneKernel,
        Vector, DEFAULT_CHOLESKY_BLOCK, MAX_LANES,
    },
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
/// The layout of the equality rows `E`.
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
    fn push_pattern(&mut self, idx: impl Iterator<Item = usize>) -> &mut [f64] {
        let start = self.idx.len();
        self.idx.extend(idx);
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

/// One run of inequality rows (see [`RowRuns`]).
struct Run {
    /// First row of the run, counted among the inequality rows.
    first: usize,
    /// Number of rows (copies) in the run.
    len: usize,
    /// The run's pattern is `idx[entries]`, with block-local positions
    /// `local[entries]` and coefficients `val[entries]`, shared by every copy.
    entries: std::ops::Range<usize>,
    /// Equilibrated right-hand side, shared by every copy.
    h: f64,
    /// Block of the first copy; copy `c` lies in block `block + c`.
    block: usize,
}

/// The inequality rows `G`, stored as runs (see the module docs): the one
/// coefficient of a run's pattern entry `t` multiplies the contiguous
/// variables `x[idx[t]..idx[t] + len]`, one per copy.
struct RowRuns {
    runs: Vec<Run>,
    /// Variable index of each pattern entry in the run's first copy.
    idx: Vec<usize>,
    /// Block-local position of each pattern entry, shared by every copy.
    local: Vec<usize>,
    /// Coefficient of each pattern entry, shared by every copy.
    val: Vec<f64>,
}

/// A borrowed run: the rows it covers, its pattern and its coefficients.
struct RunRef<'a> {
    rows: std::ops::Range<usize>,
    idx: &'a [usize],
    local: &'a [usize],
    val: &'a [f64],
    h: f64,
    block: usize,
}

impl RunRef<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// `out[c] = (G x)[rows.start + c]`.  Each row sums its terms in
    /// pattern order starting from −0.0, as `Iterator::sum` does, so every
    /// value equals the row-by-row dot product bit for bit.
    fn dot_into(&self, x: &[f64], out: &mut [f64]) {
        let len = self.len();
        let mut terms = self.idx.iter().zip(self.val);
        let Some((&j, &a)) = terms.next() else {
            out.fill(-0.0);
            return;
        };
        // −0.0 + p is p for every p, so the first term initializes the sum.
        for (o, &v) in out.iter_mut().zip(&x[j..j + len]) {
            *o = a * v;
        }
        for (&j, &a) in terms {
            for (o, &v) in out.iter_mut().zip(&x[j..j + len]) {
                *o += a * v;
            }
        }
    }

    /// `y += Gᵀ coef` over the run's rows (`coef[c]` weights copy `c`).
    ///
    /// The copies lie in distinct blocks, so no variable is shared between
    /// them and each variable takes at most one term per run: sweeping the
    /// runs in order adds every variable's terms in row order, as a
    /// row-by-row scatter does.
    fn scatter(&self, coef: &[f64], y: &mut [f64]) {
        let len = self.len();
        for (&j, &a) in self.idx.iter().zip(self.val) {
            for (v, &k) in y[j..j + len].iter_mut().zip(coef) {
                *v += k * a;
            }
        }
    }
}

impl RowRuns {
    fn new() -> Self {
        Self {
            runs: Vec::new(),
            idx: Vec::new(),
            local: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.runs.last().map_or(0, |run| run.first + run.len)
    }

    /// Length of the longest run.
    fn max_run(&self) -> usize {
        self.runs.iter().map(|run| run.len).max().unwrap_or(0)
    }

    /// Largest absolute right-hand side.
    fn h_norm(&self) -> f64 {
        self.runs.iter().fold(0.0f64, |m, run| m.max(run.h.abs()))
    }

    fn run(&self, q: usize) -> RunRef<'_> {
        let run = &self.runs[q];
        RunRef {
            rows: run.first..run.first + run.len,
            idx: &self.idx[run.entries.clone()],
            local: &self.local[run.entries.clone()],
            val: &self.val[run.entries.clone()],
            h: run.h,
            block: run.block,
        }
    }

    fn iter(&self) -> impl Iterator<Item = RunRef<'_>> {
        (0..self.runs.len()).map(|q| self.run(q))
    }

    /// Append a run of `len` copies of the row with variables `idx`,
    /// coefficients `val` and right-hand side `h`, its first copy in `block`.
    fn push(
        &mut self,
        idx: impl Iterator<Item = usize>,
        val: &[f64],
        h: f64,
        block: usize,
        len: usize,
        var_local: &[usize],
    ) {
        let start = self.idx.len();
        self.idx.extend(idx);
        self.local
            .extend(self.idx[start..].iter().map(|&v| var_local[v]));
        self.val.extend_from_slice(val);
        self.runs.push(Run {
            first: self.rows(),
            len,
            entries: start..self.idx.len(),
            h,
            block,
        });
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
/// [`PreparedLp::update_constraint`] both go through here, so an updated
/// constraint holds exactly the values a fresh preparation would.
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
    /// Build a block's coupling matrix from its columns: the nonzeros of
    /// each equality row that touches the block, as `(equality row, local
    /// row, coefficient)`.
    fn new(mut columns: Vec<&[(usize, usize, f64)]>, nb: usize) -> Self {
        let first = |col: &[(usize, usize, f64)]| col.iter().map(|t| t.1).min().unwrap_or(0);
        columns.sort_by_key(|col| first(col));
        let mut started = vec![0; nb];
        let mut ptr = vec![0; nb + 1];
        for col in &columns {
            started[first(col)] += 1;
            for &(_, l, _) in *col {
                ptr[l + 1] += 1;
            }
        }
        for i in 1..nb {
            started[i] += started[i - 1];
            ptr[i + 1] += ptr[i];
        }
        let mut next = ptr[..nb].to_vec();
        let mut entries = vec![(0, 0.0); ptr[nb]];
        for (p, col) in columns.iter().enumerate() {
            for &(_, l, coeff) in *col {
                entries[next[l]] = (p, coeff);
                next[l] += 1;
            }
        }
        Self {
            eq_rows: columns.iter().map(|col| col[0].0).collect(),
            started,
            ptr,
            entries,
        }
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.ptr[i]..self.ptr[i + 1]]
    }

    /// Whether `other` has this block's pattern: the same equality rows as
    /// columns, started at the same rows, with nonzeros at the same
    /// positions.  Only the coefficients may differ.
    fn same_pattern(&self, other: &CouplingBlock) -> bool {
        self.eq_rows == other.eq_rows
            && self.started == other.started
            && self.ptr == other.ptr
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.0 == b.0)
    }
}

struct Prepared {
    n: usize,
    c: Vec<f64>,
    g: RowRuns,
    e: SparseRows,
    f: Vec<f64>,
    /// block id of every variable
    var_block: Vec<usize>,
    /// local index of every variable inside its block
    var_local: Vec<usize>,
    blocks: Vec<Vec<usize>>,
    /// equality rows touching each block, ascending (reference kernels)
    eq_by_block: Vec<Vec<usize>>,
    /// coupling matrix `E_bᵀ` of each block (blocked kernels)
    coupling_by_block: Vec<CouplingBlock>,
    /// runs of every constraint, by its index among the problem's
    /// constraints (none for an equality)
    runs_of: Vec<std::ops::Range<usize>>,
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

    // An inequality constraint is one run when its copy `c` lies in block
    // `b₀ + c` at copy 0's block-local positions, and runs of one copy each
    // otherwise (copies inside one block, or blocks in another order).  A
    // row spanning blocks is refused; a row with no variables is vacuous
    // and attached to block 0.
    let mut g = RowRuns::new();
    let mut vals = Vec::new();
    let mut e = SparseRows::new();
    let mut f = Vec::new();
    let mut runs_of = Vec::with_capacity(problem.constraints().len());
    for (constraint, cons) in problem.constraints().iter().enumerate() {
        let (coeffs, copies) = (&cons.coeffs, cons.copies);
        let first_run = g.runs.len();
        if cons.sense == ConstraintSense::Eq {
            for shift in 0..copies {
                let out = e.push_pattern(coeffs.iter().map(|&(j, _)| j + shift));
                f.push(equilibrate_row(coeffs, cons.sense, cons.rhs, out));
            }
            runs_of.push(first_run..first_run);
            continue;
        }
        vals.resize(coeffs.len(), 0.0);
        let h = equilibrate_row(coeffs, cons.sense, cons.rhs, &mut vals);
        let block_of = |shift: usize| coeffs.first().map_or(0, |&(j, _)| var_block[j + shift]);
        let one_run = copies > 1
            && !coeffs.is_empty()
            && coeffs.iter().all(|&(j, _)| {
                (0..copies).all(|c| {
                    var_block[j + c] == block_of(0) + c && var_local[j + c] == var_local[j]
                })
            });
        if one_run {
            let idx = coeffs.iter().map(|&(j, _)| j);
            g.push(idx, &vals, h, block_of(0), copies, &var_local);
        } else {
            for shift in 0..copies {
                let block = block_of(shift);
                if coeffs.iter().any(|&(j, _)| var_block[j + shift] != block) {
                    return Err(LpError::ConstraintSpansBlocks { constraint });
                }
                let idx = coeffs.iter().map(|&(j, _)| j + shift);
                g.push(idx, &vals, h, block, 1, &var_local);
            }
        }
        runs_of.push(first_run..g.runs.len());
    }

    // The equality rows' nonzeros block by block, in row order within a
    // block: the rows touching each block, and its coupling columns.
    let mut start = vec![0; blocks.len() + 1];
    for &j in &e.idx {
        start[var_block[j] + 1] += 1;
    }
    for b in 0..blocks.len() {
        start[b + 1] += start[b];
    }
    let mut next = start.clone();
    let mut nonzeros = vec![(0, 0, 0.0); e.idx.len()];
    for ri in 0..e.len() {
        for (&j, &a) in e.idx(ri).iter().zip(e.val(ri)) {
            let b = var_block[j];
            nonzeros[next[b]] = (ri, var_local[j], a);
            next[b] += 1;
        }
    }
    let mut eq_by_block = Vec::with_capacity(blocks.len());
    let mut coupling_by_block = Vec::with_capacity(blocks.len());
    for (b, block) in blocks.iter().enumerate() {
        let columns: Vec<_> = nonzeros[start[b]..start[b + 1]]
            .chunk_by(|x, y| x.0 == y.0)
            .collect();
        eq_by_block.push(columns.iter().map(|col| col[0].0).collect());
        coupling_by_block.push(CouplingBlock::new(columns, block.len()));
    }

    Ok(Prepared {
        n,
        c: problem.objective().to_vec(),
        g,
        e,
        f,
        var_block,
        var_local,
        blocks: blocks.to_vec(),
        eq_by_block,
        coupling_by_block,
        runs_of,
    })
}

/// A block-angular LP prepared once for a chain of solves that differ only in
/// inequality coefficients (Algorithm 1's reserved-budget refinements).
///
/// Owns the [`LpProblem`] together with its prepared form (rows
/// equilibrated, each inequality constraint's copies stored as runs, the
/// coupling columns of the Schur complement extracted) and the
/// interior-point method's buffers, which every solve of the chain reuses.
/// [`PreparedLp::update_constraint`] rewrites an inequality constraint in
/// the problem and the prepared form at once, with exactly the arithmetic of
/// a fresh preparation, so [`PreparedLp::solve_with_warm`] after any
/// sequence of updates runs the same floating-point operations as
/// [`BlockAngularSolver::solve_with_warm`] on the rebuilt problem — and
/// returns the same solution bit for bit.
pub struct PreparedLp {
    problem: LpProblem,
    prep: Prepared,
    buffers: IpmBuffers,
}

impl PreparedLp {
    /// Validate the block partition and prepare `problem` under it.
    pub fn new(problem: LpProblem, blocks: &[Vec<usize>]) -> Result<Self, LpError> {
        validate_blocks(blocks, problem.num_vars())?;
        let prep = prepare(&problem, blocks)?;
        let buffers = IpmBuffers::new(&prep);
        Ok(Self {
            problem,
            prep,
            buffers,
        })
    }

    /// The problem in its current (updated) form.
    pub fn problem(&self) -> &LpProblem {
        &self.problem
    }

    /// The runs the inequality rows are stored as: each range holds the
    /// positions, among the inequality rows in constraint order, of one
    /// run's rows (see the module docs).
    pub fn inequality_runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.prep.g.iter().map(|run| run.rows)
    }

    /// Replace the coefficient values of inequality constraint `constraint`
    /// (its index among [`LpProblem::constraints`]) in every copy.
    ///
    /// `coeffs` must name the constraint's variables in its order; only the
    /// values change.  They are equilibrated once and written once per
    /// pattern entry of each of the constraint's runs.  An equality
    /// ([`LpError::EqualityRowUpdate`]), a different pattern
    /// ([`LpError::RowPatternMismatch`]), an index out of range or a
    /// non-finite value is refused and leaves the LP unchanged.
    pub fn update_constraint(
        &mut self,
        constraint: usize,
        coeffs: &[(usize, f64)],
    ) -> Result<(), LpError> {
        let constraints = self.problem.constraints();
        let Some(cons) = constraints.get(constraint) else {
            return Err(LpError::ConstraintOutOfRange {
                index: constraint,
                num_constraints: constraints.len(),
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
        let g = &mut self.prep.g;
        let mut runs = self.prep.runs_of[constraint].clone();
        if let Some(head) = runs.next() {
            let entries = g.runs[head].entries.clone();
            let h = equilibrate_row(coeffs, cons.sense, cons.rhs, &mut g.val[entries.clone()]);
            g.runs[head].h = h;
            for q in runs {
                let run = &mut g.runs[q];
                run.h = h;
                g.val.copy_within(entries.clone(), run.entries.start);
            }
        }
        for (slot, &(_, a)) in self.problem.constraints[constraint]
            .coeffs
            .iter_mut()
            .zip(coeffs)
        {
            slot.1 = a;
        }
        Ok(())
    }

    /// Solve the prepared problem with the block-angular interior-point
    /// method, optionally warm-started (see [`BlockAngularSolver::solve_with_warm`]).
    pub fn solve_with_warm(
        &mut self,
        options: &InteriorPointOptions,
        warm: Option<&WarmStart>,
    ) -> Result<LpSolution, LpError> {
        run_ipm(
            &self.problem,
            &self.prep,
            options,
            BLOCK_ANGULAR_NAME,
            warm,
            &mut self.buffers,
        )
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
// Blocked kernels: lane groups, workspace, factorization, Newton solve.
// ---------------------------------------------------------------------------

/// Consecutive blocks of one shape, assembled, factored and solved together
/// (see the module docs): entry `(i, j)` of block `first + l` is lane `l` of
/// entry `i·n + j` of the group's factor storage.
///
/// Lanes past the group's blocks are padding.  They hold a zero matrix,
/// whose regularized factor is finite, and no kernel's result is read from
/// them.
struct LaneGroup {
    /// First block of the group.
    first: usize,
    /// Number of blocks, at most `lanes`.
    blocks: usize,
    /// Lanes per entry: [`MAX_LANES`], or 1 for a lone block.
    lanes: usize,
    /// Size of every block of the group.
    n: usize,
    /// Start of the group's `n·n·lanes` factor entries.
    offset: usize,
    /// Variable of local row `i` of block `first + l`, at `i·blocks + l`.
    vars: Vec<usize>,
}

impl LaneGroup {
    fn factor_len(&self) -> usize {
        self.n * self.n * self.lanes
    }
}

/// Split the blocks into lane groups: each stretch of consecutive blocks
/// with the same size and the same coupling pattern
/// ([`CouplingBlock::same_pattern`]) becomes groups of 8 blocks, and the
/// rest one group padded to 8 lanes, or a lone block at 1 lane.  K = 49
/// blocks are six groups of 8 and a leftover block at 1 lane; K = 7 blocks
/// are one group of 8 lanes, one of them padding.
fn lane_groups(prep: &Prepared) -> Vec<LaneGroup> {
    let same_shape = |a: usize, b: usize| {
        prep.blocks[a].len() == prep.blocks[b].len()
            && prep.coupling_by_block[a].same_pattern(&prep.coupling_by_block[b])
    };
    let mut groups = Vec::new();
    let mut offset = 0;
    let mut first = 0;
    while first < prep.blocks.len() {
        let mut end = first + 1;
        while end < prep.blocks.len() && same_shape(first, end) {
            end += 1;
        }
        while first < end {
            let blocks = (end - first).min(MAX_LANES);
            let lanes = if blocks == 1 { 1 } else { MAX_LANES };
            let n = prep.blocks[first].len();
            let vars = (0..n)
                .flat_map(|i| (first..first + blocks).map(move |b| prep.blocks[b][i]))
                .collect();
            let group = LaneGroup {
                first,
                blocks,
                lanes,
                n,
                offset,
                vars,
            };
            offset += group.factor_len();
            first += blocks;
            groups.push(group);
        }
    }
    groups
}

/// Scratch of the blocked kernel strategy, one of the [`IpmBuffers`].
///
/// Allocated once and recycled: the factor storage, the Schur matrix and the
/// Schur kernel's two panels are overwritten each iteration instead of
/// reallocated (the reference path, kept for comparison, reallocates ~2·n²
/// doubles per iteration).
struct BlockedWorkspace {
    /// Instruction set the lane kernels run on.
    isa: Isa,
    groups: Vec<LaneGroup>,
    /// Group of every block.
    group_of: Vec<usize>,
    /// Newton matrices, then their Cholesky factors, lane-interleaved group
    /// by group.
    factors: Vec<f64>,
    /// Lower triangle of the Schur complement `E M⁻¹ Eᵀ` (+ regularization).
    schur: DenseMatrix,
    /// Whether equality rows exist (i.e. `schur` is meaningful).
    has_eq: bool,
    /// `X = L_b⁻¹ B_b` of the current group's blocks, row stride `m·lanes`.
    x_panel: Vec<f64>,
    /// Lower triangle of the current group's `XᵀX`, `m × m` lane vectors.
    s_local: Vec<f64>,
    /// Barrier weights of the rows of one run.
    weights: Vec<f64>,
}

impl BlockedWorkspace {
    fn new(prep: &Prepared) -> Self {
        let m_eq = prep.e.len();
        let groups = lane_groups(prep);
        let mut group_of = vec![0; prep.blocks.len()];
        let (mut x_len, mut s_len) = (0, 0);
        for (q, g) in groups.iter().enumerate() {
            group_of[g.first..g.first + g.blocks].fill(q);
            let m = prep.coupling_by_block[g.first].eq_rows.len();
            x_len = x_len.max(g.n * m * g.lanes);
            s_len = s_len.max(m * m * g.lanes);
        }
        Self {
            isa: Isa::detect(),
            factors: vec![0.0; groups.iter().map(LaneGroup::factor_len).sum()],
            groups,
            group_of,
            schur: DenseMatrix::zeros(m_eq, m_eq),
            has_eq: m_eq > 0,
            x_panel: vec![0.0; x_len],
            s_local: vec![0.0; s_len],
            weights: vec![0.0; prep.g.max_run()],
        }
    }

    fn factor(&self, g: &LaneGroup) -> &[f64] {
        &self.factors[g.offset..g.offset + g.factor_len()]
    }
}

/// Assemble the lower triangle of every block's Newton matrix `M_b = G_bᵀ
/// diag(λ/w) G_b + diag(s/x)` into the lane-interleaved factor storage
/// (its lower triangle zeroed first).
///
/// One sweep over the runs, as [`assemble_block_matrices`] does: a run's
/// copies lie in consecutive blocks, so the copies that fall in one group
/// are consecutive lanes, and each pair of pattern entries updates them as
/// one contiguous slice with the entries' two coefficients.  Every entry still takes its terms row by row, in
/// row order, each as `(λ/w · a_i) · a_j`; the products `λ/w · a_i` of a
/// segment are formed once per pattern entry `i`.
fn assemble_lanes(prep: &Prepared, it: &Point, ws: &mut BlockedWorkspace) {
    let BlockedWorkspace {
        groups,
        group_of,
        factors,
        weights,
        ..
    } = ws;
    // Only the lower triangle is read, so only it is cleared.
    for g in groups.iter() {
        for i in 0..g.n {
            let row = g.offset + i * g.n * g.lanes;
            factors[row..row + (i + 1) * g.lanes].fill(0.0);
        }
    }
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let wt = &mut weights[..run.len()];
        for ((v, &lam), &w) in wt.iter_mut().zip(&it.lam[rows.clone()]).zip(&it.w[rows]) {
            *v = barrier_weight(lam, w);
        }
        let mut c = 0;
        while c < run.len() {
            let g = &groups[group_of[run.block + c]];
            let lane = run.block + c - g.first;
            let copies = c..c + (g.blocks - lane).min(run.len() - c);
            let len = copies.len();
            let mats = &mut factors[g.offset..g.offset + g.factor_len()];
            let wt = &wt[copies.clone()];
            let mut kx = [0.0; MAX_LANES];
            for (&ia, &va) in run.local.iter().zip(run.val) {
                for (o, &k) in kx[..len].iter_mut().zip(wt) {
                    *o = k * va;
                }
                let row = &mut mats[ia * g.n * g.lanes..];
                for (&ib, &vb) in run.local.iter().zip(run.val) {
                    if ib > ia {
                        continue;
                    }
                    let at = ib * g.lanes + lane;
                    for (m, &kx) in row[at..at + len].iter_mut().zip(&kx[..len]) {
                        *m += kx * vb;
                    }
                }
            }
            c = copies.end;
        }
    }
    for g in groups.iter() {
        let mats = &mut factors[g.offset..g.offset + g.factor_len()];
        for i in 0..g.n {
            let diag = &mut mats[(i * g.n + i) * g.lanes..][..g.blocks];
            for (d, &v) in diag.iter_mut().zip(&g.vars[i * g.blocks..]) {
                *d += (it.s[v] / it.x[v]).min(1e10);
            }
        }
    }
}

/// One group's factorization: the blocks' Cholesky factors in place and,
/// when the blocks are coupled, their Schur panels.
struct FactorGroup<'a> {
    factor: &'a mut [f64],
    n: usize,
    schur: Option<SchurPanel<'a>>,
}

/// The coupling pattern shared by a group's blocks and the panels the Schur
/// kernel fills (see [`schur_panel_lanes`]).
struct SchurPanel<'a> {
    m: usize,
    started: &'a [usize],
    top: usize,
    x: &'a mut [f64],
    s_local: &'a mut [f64],
}

impl LaneKernel for FactorGroup<'_> {
    type Output = Result<(), LpError>;

    #[inline(always)]
    fn run<V: Vector>(self) -> Result<(), LpError> {
        cholesky_lanes::<V>(self.factor, self.n, DEFAULT_CHOLESKY_BLOCK, REGULARIZATION)?;
        if let Some(p) = self.schur {
            schur_panel_lanes::<V>(self.factor, self.n, p.m, p.started, p.top, p.x, p.s_local);
        }
        Ok(())
    }
}

/// One group's block solve `M_b⁻¹ rhs`, in place on lane-interleaved
/// right-hand sides.
struct SolveGroup<'a> {
    factor: &'a [f64],
    n: usize,
    rhs: &'a mut [f64],
}

impl LaneKernel for SolveGroup<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Vector>(self) {
        cholesky_solve_lanes::<V>(self.factor, self.n, self.rhs);
    }
}

/// Assemble and factorize the block-diagonal Newton matrix and the Schur
/// complement `S = Σ_b B_bᵀ M_b⁻¹ B_b = Σ_b X_bᵀ X_b` with the lane kernels,
/// reusing the workspace buffers.
///
/// Group by group: the blocks' factors, then `X = L_b⁻¹ B_b` and the lower
/// triangle of `XᵀX` ([`schur_panel_lanes`]), scattered into the Schur
/// matrix through each lane's equality rows.  A Schur entry takes at most
/// one term per block, so the scatter adds its terms in block order, as the
/// per-block kernel did.  The first failing block is the first failing lane
/// of the first failing group, so a NaN pivot gives the per-block error.
fn factor_blocked(prep: &Prepared, ws: &mut BlockedWorkspace, it: &Point) -> Result<(), LpError> {
    assemble_lanes(prep, it, ws);
    let BlockedWorkspace {
        isa,
        groups,
        factors,
        schur,
        has_eq,
        x_panel,
        s_local,
        ..
    } = ws;
    schur.fill(0.0);
    for g in groups.iter() {
        let lanes = g.lanes;
        let coupling = &prep.coupling_by_block[g.first..g.first + g.blocks];
        let (started, m) = (&coupling[0].started, coupling[0].eq_rows.len());
        let top = started.iter().position(|&st| st > 0).unwrap_or(g.n);
        let x = &mut x_panel[..g.n * m * lanes];
        let s = &mut s_local[..m * m * lanes];
        let coupled = *has_eq && m > 0;
        if coupled {
            // X starts as B: the rows a lane's factor is applied to hold the
            // block's coupling coefficients, zero elsewhere.
            for i in top..g.n {
                let row = &mut x[i * m * lanes..(i + 1) * m * lanes];
                row.fill(0.0);
                for (lane, block) in coupling.iter().enumerate() {
                    for &(p, coeff) in block.row(i) {
                        row[p * lanes + lane] = coeff;
                    }
                }
            }
        }
        isa.run(
            lanes,
            FactorGroup {
                factor: &mut factors[g.offset..g.offset + g.factor_len()],
                n: g.n,
                schur: coupled.then_some(SchurPanel {
                    m,
                    started,
                    top,
                    x,
                    s_local: &mut *s,
                }),
            },
        )?;
        if !coupled {
            continue;
        }
        // The lanes share their equality rows, so entry `(a, c)` of every
        // lane lands on one Schur entry.  Eight entries at a time, the lanes
        // are added in order: each Schur entry still takes its terms in
        // block order, and the eight entries' additions overlap.
        let m_eq = schur.rows();
        let lower = schur.as_mut_slice();
        let eq_rows = &coupling[0].eq_rows;
        for (a, &eq_a) in eq_rows.iter().enumerate() {
            let terms = &s[a * m * lanes..][..(a + 1) * lanes];
            for (cols, chunk) in eq_rows[..=a].chunks(8).zip(terms.chunks(8 * lanes)) {
                for lane in 0..g.blocks {
                    for (&eq_c, &v) in cols.iter().zip(chunk[lane..].iter().step_by(lanes)) {
                        lower[eq_a.max(eq_c) * m_eq + eq_a.min(eq_c)] += v;
                    }
                }
            }
        }
    }

    if !*has_eq {
        return Ok(());
    }
    for i in 0..prep.e.len() {
        schur.add_diagonal(i, REGULARIZATION.max(1e-12));
    }
    schur.cholesky_in_place(REGULARIZATION)
}

/// Scratch of the blocked Newton solve, one of the [`IpmBuffers`]: the
/// intermediate `t = M⁻¹ rhs1` and one group's lane-interleaved right-hand
/// sides.
struct NewtonScratch {
    t: Vec<f64>,
    local: Vec<f64>,
}

impl NewtonScratch {
    fn new(prep: &Prepared) -> Self {
        let max_nb = prep.blocks.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            t: vec![0.0; prep.n],
            local: vec![0.0; max_nb * MAX_LANES],
        }
    }
}

/// Newton solve against the blocked factorization, writing `dx` (length `n`)
/// and `dmu` (length `m_eq`) in place.  Each group gathers its blocks'
/// right-hand sides into lanes, solves them in one pass and scatters the
/// solutions back.
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
    // t = M⁻¹ rhs1, group by group.
    for g in &ws.groups {
        let rhs = &mut local[..g.n * g.lanes];
        rhs.fill(0.0);
        for (v, vars) in rhs
            .chunks_exact_mut(g.lanes)
            .zip(g.vars.chunks_exact(g.blocks))
        {
            for (v, &var) in v.iter_mut().zip(vars) {
                *v = rhs1[var];
            }
        }
        let factor = ws.factor(g);
        ws.isa.run(
            g.lanes,
            SolveGroup {
                factor,
                n: g.n,
                rhs,
            },
        );
        for (v, vars) in local
            .chunks_exact(g.lanes)
            .zip(g.vars.chunks_exact(g.blocks))
        {
            for (&v, &var) in v.iter().zip(vars) {
                t[var] = v;
            }
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
    // dx = M⁻¹ (rhs1 − Eᵀ dmu), group by group: B_b·dmu through each lane's
    // sparse coupling rows — the dense `M_b⁻¹ E_bᵀ` product of the reference
    // path is never materialized.
    for g in &ws.groups {
        let u = &mut local[..g.n * g.lanes];
        u.fill(0.0);
        for (lane, coupling) in prep.coupling_by_block[g.first..g.first + g.blocks]
            .iter()
            .enumerate()
        {
            for i in 0..g.n {
                let mut v = 0.0;
                for &(p, coeff) in coupling.row(i) {
                    v += coeff * dmu[coupling.eq_rows[p]];
                }
                u[i * g.lanes + lane] = v;
            }
        }
        let factor = ws.factor(g);
        ws.isa.run(
            g.lanes,
            SolveGroup {
                factor,
                n: g.n,
                rhs: u,
            },
        );
        for (v, vars) in local
            .chunks_exact(g.lanes)
            .zip(g.vars.chunks_exact(g.blocks))
        {
            for (&v, &var) in v.iter().zip(vars) {
                dx[var] = t[var] - v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference kernels (pre-optimization), kept for benchmarks and agreement.
// ---------------------------------------------------------------------------

/// Assemble every block's full Newton matrix `M_b = G_bᵀ diag(λ/w) G_b +
/// diag(s/x)` into `mats` (zeroed first), for the reference kernels.
///
/// One sweep over the runs: a run's barrier weights are formed once, and
/// each pair of its pattern entries updates one position of every copy's
/// block with the entries' two coefficients.  A block
/// holds at most one copy of each run, so its entries still take their
/// terms row by row, in row order, each as `(λ/w · a_i) · a_j` — the
/// arithmetic of a row-by-row assembly.  `weights` holds at least the
/// longest run.
fn assemble_block_matrices(
    prep: &Prepared,
    it: &Point,
    mats: &mut [DenseMatrix],
    weights: &mut [f64],
) {
    for mb in mats.iter_mut() {
        mb.fill(0.0);
    }
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let wt = &mut weights[..run.len()];
        for ((v, &lam), &w) in wt.iter_mut().zip(&it.lam[rows.clone()]).zip(&it.w[rows]) {
            *v = barrier_weight(lam, w);
        }
        let mats = &mut mats[run.block..run.block + run.len()];
        for (&ia, &va) in run.local.iter().zip(run.val) {
            for (&ib, &vb) in run.local.iter().zip(run.val) {
                for (mb, &k) in mats.iter_mut().zip(wt.iter()) {
                    mb[(ia, ib)] += (k * va) * vb;
                }
            }
        }
    }
    for (mb, block) in mats.iter_mut().zip(&prep.blocks) {
        for (local, &v) in block.iter().enumerate() {
            mb.add_diagonal(local, (it.s[v] / it.x[v]).min(1e10));
        }
    }
}

/// Factorization state of the reference path: per-block factors, the dense
/// Schur factor, and the materialized `M_b⁻¹ E_bᵀ` panels.
struct ReferenceFactors {
    block_factors: Vec<DenseMatrix>,
    schur_factor: Option<DenseMatrix>,
    block_ez: Vec<DenseMatrix>,
}

/// Assemble and factorize with the original scalar kernels (fresh allocations
/// every iteration, dense Schur accumulation) — the measurable baseline.
fn factor_reference(prep: &Prepared, it: &Point) -> Result<ReferenceFactors, LpError> {
    let m_eq = prep.e.len();
    let mut block_factors: Vec<DenseMatrix> = prep
        .blocks
        .iter()
        .map(|block| DenseMatrix::zeros(block.len(), block.len()))
        .collect();
    let mut weights = vec![0.0; prep.g.max_run()];
    assemble_block_matrices(prep, it, &mut block_factors, &mut weights);
    for mb in &mut block_factors {
        mb.cholesky_in_place_unblocked(REGULARIZATION)?;
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

/// A point of — or a direction in — the primal (`x`, `w`) and dual (`lam`,
/// `s`) barrier variables; the equality multipliers are kept beside it.
struct Point {
    x: Vec<f64>,
    w: Vec<f64>,
    lam: Vec<f64>,
    s: Vec<f64>,
}

impl Point {
    fn filled(n: usize, m_in: usize, value: f64) -> Self {
        Self {
            x: vec![value; n],
            w: vec![value; m_in],
            lam: vec![value; m_in],
            s: vec![value; n],
        }
    }
}

/// Primal and dual residuals of an iterate.
struct Residuals {
    /// `h − Gx − w`
    p1: Vec<f64>,
    /// `f − Ex`
    p2: Vec<f64>,
    /// `c + Gᵀλ + Eᵀμ − s`
    dual: Vec<f64>,
}

/// Complementarity right-hand sides of one Newton system: one per `x`–`s`
/// pair and one per `w`–`λ` pair.
struct Targets {
    x: Vec<f64>,
    w: Vec<f64>,
}

/// Every vector and kernel buffer of the interior-point method, sized for
/// one prepared problem.
///
/// A one-off solve allocates these once; a [`PreparedLp`] keeps them across
/// the solves of its chain.  Each solve writes every buffer in full before
/// reading it, so nothing of one solve reaches the next.
struct IpmBuffers {
    it: Point,
    mu_eq: Vec<f64>,
    best_x: Vec<f64>,
    res: Residuals,
    /// The predictor's and then the corrector's targets.
    rc: Targets,
    /// The Gondzio band targets.
    band: Targets,
    rhs1: Vec<f64>,
    /// Scatter coefficients of the rows of one run.
    coef: Vec<f64>,
    /// The search direction, and a trial one: first the affine predictor,
    /// then each Gondzio candidate, swapped in when accepted.
    dir: Point,
    trial: Point,
    ddx: Vec<f64>,
    dmu: Vec<f64>,
    ddmu: Vec<f64>,
    zeros_eq: Vec<f64>,
    /// Created by the first solve with the blocked kernels.
    workspace: Option<BlockedWorkspace>,
    scratch: NewtonScratch,
}

impl IpmBuffers {
    fn new(prep: &Prepared) -> Self {
        let n = prep.n;
        let m_in = prep.g.rows();
        let m_eq = prep.e.len();
        let targets = || Targets {
            x: vec![0.0; n],
            w: vec![0.0; m_in],
        };
        Self {
            it: Point::filled(n, m_in, 1.0),
            mu_eq: vec![0.0; m_eq],
            best_x: vec![0.0; n],
            res: Residuals {
                p1: vec![0.0; m_in],
                p2: vec![0.0; m_eq],
                dual: vec![0.0; n],
            },
            rc: targets(),
            band: targets(),
            rhs1: vec![0.0; n],
            coef: vec![0.0; prep.g.max_run()],
            dir: Point::filled(n, m_in, 0.0),
            trial: Point::filled(n, m_in, 0.0),
            ddx: vec![0.0; n],
            dmu: vec![0.0; m_eq],
            ddmu: vec![0.0; m_eq],
            zeros_eq: vec![0.0; m_eq],
            workspace: None,
            scratch: NewtonScratch::new(prep),
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

/// Pairs whose primal side has converged to its bound are left out of the
/// Gondzio correctors: the correction divides by that variable, so
/// "lifting" a boundary pair would inject an enormous (possibly overflowing)
/// right-hand side for a product that legitimately sits at zero.
const BOUNDARY: f64 = 1e-12;

/// The residuals of `it` with equality multipliers `mu_eq`.  Each run gives
/// its rows' `p1` and their `Gᵀλ` scatter in one pass.
fn compute_residuals(prep: &Prepared, it: &Point, mu_eq: &[f64], res: &mut Residuals) {
    res.dual.copy_from_slice(&prep.c);
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let p1 = &mut res.p1[rows.clone()];
        run.dot_into(&it.x, p1);
        for (r, &w) in p1.iter_mut().zip(&it.w[rows.clone()]) {
            *r = run.h - *r - w;
        }
        run.scatter(&it.lam[rows], &mut res.dual);
    }
    for (ri, r) in res.p2.iter_mut().enumerate() {
        *r = prep.f[ri] - prep.e.dot(ri, &it.x);
    }
    for (ri, &m) in mu_eq.iter().enumerate() {
        prep.e.axpy_into(ri, m, &mut res.dual);
    }
    for (d, &s) in res.dual.iter_mut().zip(&it.s) {
        *d -= s;
    }
}

/// `rhs1 = −dual + Gᵀ((λ/w)·p1 − rc.w/w) + rc.x/x`, one run's scatter
/// coefficients at a time (`coef` holds at least the longest run).
fn build_rhs1(
    prep: &Prepared,
    it: &Point,
    res: &Residuals,
    rc: &Targets,
    coef: &mut [f64],
    rhs1: &mut [f64],
) {
    for (r, &v) in rhs1.iter_mut().zip(&res.dual) {
        *r = -v;
    }
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let coef = &mut coef[..run.len()];
        for ((((u, &lam), &w), &p1), &t) in coef
            .iter_mut()
            .zip(&it.lam[rows.clone()])
            .zip(&it.w[rows.clone()])
            .zip(&res.p1[rows.clone()])
            .zip(&rc.w[rows])
        {
            *u = (lam / w) * p1 - t / w;
        }
        run.scatter(coef, rhs1);
    }
    for ((r, &t), &x) in rhs1.iter_mut().zip(&rc.x).zip(&it.x) {
        *r += t / x;
    }
}

/// Complete a direction from its `dx`: `dw = p1 − G·dx`,
/// `dlam = (rc.w − λ∘dw)/w` and `ds = (rc.x − s∘dx)/x`, each row's entries
/// and both steps to the boundary in one pass.  Returns the largest primal
/// and dual steps that keep the iterate non-negative.
fn complete_direction(
    prep: &Prepared,
    it: &Point,
    p1: &[f64],
    rc: &Targets,
    d: &mut Point,
) -> (f64, f64) {
    let (mut step_x, mut step_w, mut step_lam, mut step_s) = (1.0, 1.0, 1.0, 1.0);
    for ((((ds, &dx), &t), &x), &s) in d.s.iter_mut().zip(&d.x).zip(&rc.x).zip(&it.x).zip(&it.s) {
        *ds = (t - s * dx) / x;
        shrink_step(&mut step_x, x, dx);
        shrink_step(&mut step_s, s, *ds);
    }
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let dw = &mut d.w[rows.clone()];
        run.dot_into(&d.x, dw);
        for (((((dw, dlam), &p1), &t), &lam), &w) in dw
            .iter_mut()
            .zip(&mut d.lam[rows.clone()])
            .zip(&p1[rows.clone()])
            .zip(&rc.w[rows.clone()])
            .zip(&it.lam[rows.clone()])
            .zip(&it.w[rows])
        {
            *dw = p1 - *dw;
            *dlam = (t - lam * *dw) / w;
            shrink_step(&mut step_w, w, *dw);
            shrink_step(&mut step_lam, lam, *dlam);
        }
    }
    (f64::min(step_x, step_w), f64::min(step_s, step_lam))
}

/// The trial steps and the centrality band `[lo, hi]` of one Gondzio
/// corrector.
struct Band {
    trial_p: f64,
    trial_d: f64,
    lo: f64,
    hi: f64,
}

impl Band {
    /// How far the product `(v + trial_p·dv)·(u + trial_d·du)` falls
    /// outside the band (zero inside it).
    fn violation(&self, v: f64, dv: f64, u: f64, du: f64) -> f64 {
        let p = (v + self.trial_p * dv) * (u + self.trial_d * du);
        if p < self.lo {
            self.lo - p
        } else if p > self.hi {
            self.hi - p
        } else {
            0.0
        }
    }
}

/// The right-hand side of a Gondzio corrector: a Newton system with zero
/// residual blocks and the band violations `t` of the products along `dir`
/// as its complementarity targets, each inequality's term scattered into
/// `rhs1` as soon as it is measured.  Returns whether any product lies
/// outside the band.
///
/// A run with no outlier is not scattered; within a scattered run a row
/// inside the band adds a zero term.  That leaves `rhs1` as skipping the row
/// would: it starts at +0.0, and a sum is −0.0 only when both of its terms
/// are, so no entry is ever −0.0 and adding ±0.0 changes none.
fn band_rhs(
    prep: &Prepared,
    it: &Point,
    dir: &Point,
    band: &Band,
    t: &mut Targets,
    coef: &mut [f64],
    rhs1: &mut [f64],
) -> bool {
    let mut any_outlier = false;
    rhs1.fill(0.0);
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let coef = &mut coef[..run.len()];
        let mut outliers = false;
        for (((((u, tw), &w), &dw), &lam), &dlam) in coef
            .iter_mut()
            .zip(&mut t.w[rows.clone()])
            .zip(&it.w[rows.clone()])
            .zip(&dir.w[rows.clone()])
            .zip(&it.lam[rows.clone()])
            .zip(&dir.lam[rows])
        {
            *tw = if w <= BOUNDARY {
                0.0
            } else {
                band.violation(w, dw, lam, dlam)
            };
            *u = if *tw != 0.0 {
                outliers = true;
                -*tw / w
            } else {
                0.0
            };
        }
        if outliers {
            any_outlier = true;
            run.scatter(coef, rhs1);
        }
    }
    for (((((r, tx), &x), &dx), &s), &ds) in rhs1
        .iter_mut()
        .zip(&mut t.x)
        .zip(&it.x)
        .zip(&dir.x)
        .zip(&it.s)
        .zip(&dir.s)
    {
        *tx = if x <= BOUNDARY {
            0.0
        } else {
            band.violation(x, dx, s, ds)
        };
        any_outlier |= *tx != 0.0;
        *r += *tx / x;
    }
    any_outlier
}

/// The enlarged Gondzio candidate `trial = dir + (ddx, …)` for the band
/// targets `t`, with its steps to the boundary and its finiteness measured in
/// the same pass.  Returns the largest primal and dual steps and whether
/// every entry is finite.
fn enlarged_candidate(
    prep: &Prepared,
    it: &Point,
    dir: &Point,
    ddx: &[f64],
    t: &Targets,
    trial: &mut Point,
) -> (f64, f64, bool) {
    let (mut step_x, mut step_w, mut step_lam, mut step_s) = (1.0, 1.0, 1.0, 1.0);
    let mut finite = true;
    for (((((((tx, ts), &dx), &ds), &ddx), &t), &x), &s) in trial
        .x
        .iter_mut()
        .zip(&mut trial.s)
        .zip(&dir.x)
        .zip(&dir.s)
        .zip(ddx)
        .zip(&t.x)
        .zip(&it.x)
        .zip(&it.s)
    {
        *tx = dx + ddx;
        *ts = ds + (t - s * ddx) / x;
        shrink_step(&mut step_x, x, *tx);
        shrink_step(&mut step_s, s, *ts);
        finite &= tx.is_finite() & ts.is_finite();
    }
    for run in prep.g.iter() {
        let rows = run.rows.clone();
        let tw = &mut trial.w[rows.clone()];
        run.dot_into(ddx, tw);
        for ((((((tw, tlam), &dw), &dlam), &t), &lam), &w) in tw
            .iter_mut()
            .zip(&mut trial.lam[rows.clone()])
            .zip(&dir.w[rows.clone()])
            .zip(&dir.lam[rows.clone()])
            .zip(&t.w[rows.clone()])
            .zip(&it.lam[rows.clone()])
            .zip(&it.w[rows])
        {
            let ddw = -*tw;
            *tw = dw + ddw;
            *tlam = dlam + (t - lam * ddw) / w;
            shrink_step(&mut step_w, w, *tw);
            shrink_step(&mut step_lam, lam, *tlam);
            finite &= tw.is_finite() & tlam.is_finite();
        }
    }
    (f64::min(step_x, step_w), f64::min(step_s, step_lam), finite)
}

/// Prepare `problem` under `blocks`, then run the interior-point method.
fn solve_ipm(
    problem: &LpProblem,
    blocks: &[Vec<usize>],
    opts: &InteriorPointOptions,
    solver_name: &'static str,
    warm: Option<&WarmStart>,
) -> Result<LpSolution, LpError> {
    let prep = prepare(problem, blocks)?;
    let mut buffers = IpmBuffers::new(&prep);
    run_ipm(problem, &prep, opts, solver_name, warm, &mut buffers)
}

/// The interior-point method on a prepared problem (`prep` must be the
/// prepared form of `problem`, which supplies only the reported objective),
/// in `buffers` sized for it.
fn run_ipm(
    problem: &LpProblem,
    prep: &Prepared,
    opts: &InteriorPointOptions,
    solver_name: &'static str,
    warm: Option<&WarmStart>,
    buffers: &mut IpmBuffers,
) -> Result<LpSolution, LpError> {
    let n = prep.n;
    let m_in = prep.g.rows();
    let m_eq = prep.e.len();
    let IpmBuffers {
        it,
        mu_eq,
        best_x,
        res,
        rc,
        band: t,
        rhs1,
        coef,
        dir,
        trial,
        ddx,
        dmu,
        ddmu,
        zeros_eq,
        workspace,
        scratch,
    } = buffers;

    // Primal and dual iterates, all strictly positive where required.
    for v in [&mut it.x, &mut it.w, &mut it.lam, &mut it.s] {
        v.fill(1.0);
    }
    mu_eq.fill(0.0);

    let scale = 1.0
        + inf_norm(&prep.c)
            .max(prep.g.h_norm())
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
            for (x, &wx) in it.x.iter_mut().zip(&warm.x) {
                *x = wx.max(WARM_FLOOR);
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
            // iterate back inside.  The slacks are held in `p1`, which the
            // first iteration overwrites.
            let raw_w = &mut res.p1;
            let mut violation = 0.0f64;
            for run in prep.g.iter() {
                let rows = run.rows.clone();
                let raw_w = &mut raw_w[rows.clone()];
                run.dot_into(&it.x, raw_w);
                for raw in raw_w.iter_mut() {
                    *raw = run.h - *raw;
                    violation = violation.max(-*raw);
                }
            }
            let mu0 = warm
                .mu
                .max(10.0 * opts.tolerance * scale)
                .max(violation)
                .min(scale);
            for ((s, &ws), &x) in it.s.iter_mut().zip(&warm.s).zip(&it.x) {
                *s = ws.max(mu0 / x.max(1.0)).max(WARM_FLOOR);
            }
            mu_eq.copy_from_slice(&warm.y[..m_eq]);
            for (((w, lam), &raw), &y) in
                it.w.iter_mut()
                    .zip(&mut it.lam)
                    .zip(raw_w.iter())
                    .zip(&warm.y[m_eq..])
            {
                // Rows the warm point satisfies keep their exact slack (a
                // legitimately active row's tiny w pairs with its large λ);
                // violated or boundary rows restart at the barrier level —
                // an interior, step-friendly slack whose residual the solver
                // is built to drive out.
                *w = if raw >= WARM_FLOOR {
                    raw
                } else {
                    mu0.max(WARM_FLOOR)
                };
                *lam = y.max(mu0 / w.max(1.0)).max(WARM_FLOOR);
            }
        }
    }

    if opts.kernels == KernelStrategy::Blocked && workspace.is_none() {
        *workspace = Some(BlockedWorkspace::new(prep));
    }

    // Set CORGI_IPM_TRACE=1 to print per-iteration residuals to stderr
    // (diagnosing warm-start quality and convergence stalls).
    let trace = std::env::var_os("CORGI_IPM_TRACE").is_some();

    let mut iterations = 0usize;
    let mut status = SolveStatus::IterationLimit;
    // Track the best iterate seen so far (by a simple merit of residuals + gap);
    // if the path-following stalls or diverges later, return this point instead
    // of the last iterate.
    best_x.copy_from_slice(&it.x);
    let mut best_merit = f64::INFINITY;
    // μ of the last completed residual check — captured into the WarmStart on
    // convergence (it is then the converged complementarity gap).
    let mut mu_gap_final = f64::INFINITY;

    for iter in 0..opts.max_iterations {
        iterations = iter + 1;

        compute_residuals(prep, it, mu_eq, res);

        let gap_terms =
            it.x.iter()
                .zip(it.s.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
                + it.w
                    .iter()
                    .zip(it.lam.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
        let denom = (n + m_in) as f64;
        let mu_gap = gap_terms / denom;
        mu_gap_final = mu_gap;

        let primal_err = inf_norm(&res.p1).max(inf_norm(&res.p2));
        let dual_err = inf_norm(&res.dual);
        if trace {
            eprintln!("iter {iter}: primal {primal_err:.3e} dual {dual_err:.3e} mu {mu_gap:.3e}");
        }
        let merit = primal_err + dual_err + mu_gap;
        if merit.is_finite() && merit < best_merit {
            best_merit = merit;
            best_x.copy_from_slice(&it.x);
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
                factor_blocked(prep, ws, it)?;
                Factorization::Blocked(ws)
            }
            KernelStrategy::Reference => Factorization::Reference(factor_reference(prep, it)?),
        };

        // ---- Affine (predictor) direction: σ = 0, no corrector. ----
        for j in 0..n {
            rc.x[j] = -it.x[j] * it.s[j];
        }
        for ri in 0..m_in {
            rc.w[ri] = -it.w[ri] * it.lam[ri];
        }
        build_rhs1(prep, it, res, rc, coef, rhs1);
        // The affine direction's `dmu` is never used; `ddmu` takes it.
        factorization.newton_solve_into(prep, scratch, rhs1, &res.p2, &mut trial.x, ddmu);
        let (alpha_p_aff, alpha_d_aff) = complete_direction(prep, it, &res.p1, rc, trial);
        let aff = &*trial;

        // Mehrotra centering parameter.
        let mut gap_aff = 0.0;
        for j in 0..n {
            gap_aff += (it.x[j] + alpha_p_aff * aff.x[j]) * (it.s[j] + alpha_d_aff * aff.s[j]);
        }
        for ri in 0..m_in {
            gap_aff +=
                (it.w[ri] + alpha_p_aff * aff.w[ri]) * (it.lam[ri] + alpha_d_aff * aff.lam[ri]);
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
            rc.x[j] = target_mu - it.x[j] * it.s[j] - aff.x[j] * aff.s[j];
        }
        for ri in 0..m_in {
            rc.w[ri] = target_mu - it.w[ri] * it.lam[ri] - aff.w[ri] * aff.lam[ri];
        }
        build_rhs1(prep, it, res, rc, coef, rhs1);
        factorization.newton_solve_into(prep, scratch, rhs1, &res.p2, &mut dir.x, dmu);
        let (step_p, step_d) = complete_direction(prep, it, &res.p1, rc, dir);
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
            let band = Band {
                trial_p: (alpha_p / STEP_FRACTION + TRIAL_ENLARGE * (1.0 - alpha_p)).min(1.0),
                trial_d: (alpha_d / STEP_FRACTION + TRIAL_ENLARGE * (1.0 - alpha_d)).min(1.0),
                lo: BETA_MIN * target_mu,
                hi: BETA_MAX * target_mu,
            };
            if !band_rhs(prep, it, dir, &band, t, coef, rhs1) {
                break;
            }
            factorization.newton_solve_into(prep, scratch, rhs1, zeros_eq, ddx, ddmu);
            let (step_p, step_d, finite) = enlarged_candidate(prep, it, dir, ddx, t, trial);
            let ap = (STEP_FRACTION * step_p).min(1.0);
            let ad = (STEP_FRACTION * step_d).min(1.0);
            if !finite || ap + ad < alpha_p + alpha_d + 0.02 {
                break;
            }
            std::mem::swap(dir, trial);
            for (a, b) in dmu.iter_mut().zip(ddmu.iter()) {
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
            it.x[j] = (it.x[j] + alpha_p * dir.x[j]).max(FLOOR);
            it.s[j] = (it.s[j] + alpha_d * dir.s[j]).max(FLOOR);
        }
        for ri in 0..m_in {
            it.w[ri] = (it.w[ri] + alpha_p * dir.w[ri]).max(FLOOR);
            it.lam[ri] = (it.lam[ri] + alpha_d * dir.lam[ri]).max(FLOOR);
        }
        for (ri, d) in dmu.iter().enumerate() {
            mu_eq[ri] += alpha_d * d;
        }
        if it.x.iter().any(|v| !v.is_finite()) {
            // Numerical breakdown: stop and fall back to the best iterate.
            status = SolveStatus::IterationLimit;
            break;
        }
    }

    // Capture the converged iterate for warm-starting nearby solves — only on
    // `Optimal` (a diverged or stalled iterate would poison the next solve).
    let warm_out = if status == SolveStatus::Optimal {
        let mut y = mu_eq.clone();
        y.extend_from_slice(&it.lam);
        Some(WarmStart {
            x: it.x.clone(),
            y,
            s: it.s.clone(),
            mu: mu_gap_final,
        })
    } else {
        None
    };
    let x = if status == SolveStatus::Optimal {
        it.x.clone()
    } else {
        best_x.clone()
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
        it: Point,
    }

    impl FactorizationBench {
        /// Prepare `problem` under the given block partition.
        pub fn new(problem: &LpProblem, blocks: &[Vec<usize>]) -> Result<Self, LpError> {
            validate_blocks(blocks, problem.num_vars())?;
            let prep = prepare(problem, blocks)?;
            let ws = BlockedWorkspace::new(&prep);
            let it = Point::filled(prep.n, prep.g.rows(), 1.0);
            Ok(Self { prep, ws, it })
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
            let it = &mut self.it;
            for v in
                it.x.iter_mut()
                    .chain(it.s.iter_mut())
                    .chain(it.w.iter_mut())
                    .chain(it.lam.iter_mut())
            {
                *v = 0.05 + next();
            }
        }

        /// Assemble and factorize all block Newton matrices and the Schur
        /// complement — the timed kernel.
        pub fn factor(&mut self) -> Result<(), LpError> {
            factor_blocked(&self.prep, &mut self.ws, &self.it)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimplexSolver, FLUSH_THRESHOLD};

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

    // ---- Lane kernels against the per-block scalar kernels. ----

    /// The per-block scalar Schur kernel the lane kernels replaced, kept as
    /// their oracle: block `b`'s contribution `B_bᵀ M_b⁻¹ B_b = XᵀX`, `X = L_b⁻¹
    /// B_b`, added into the lower triangle of `schur`.  Row `i` of `X` is
    /// nonzero only in its first `started[i]` columns; four rows per pass, the
    /// flush after each row's division, then the scatter through the columns'
    /// equality rows.
    fn accumulate_schur_block(prep: &Prepared, b: usize, l: &DenseMatrix, schur: &mut DenseMatrix) {
        let coupling = &prep.coupling_by_block[b];
        let m = coupling.eq_rows.len();
        if m == 0 {
            return;
        }
        let nb = prep.blocks[b].len();
        let started = &coupling.started;
        let mut x_panel = vec![0.0; nb * m];
        let x = &mut x_panel[..];
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

        let mut s_buf = vec![0.0; m * m];
        let s_local = &mut s_buf[..];
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
                schur[(r, col)] += s_local[a * m + c];
            }
        }
    }

    /// The per-block Newton solve the lane kernels replaced, kept as their
    /// oracle.
    fn newton_solve_per_block(
        prep: &Prepared,
        oracle: &PerBlock,
        rhs1: &[f64],
        r_p2: &[f64],
        dx: &mut [f64],
        dmu: &mut [f64],
    ) {
        let max_nb = prep.blocks.iter().map(Vec::len).max().unwrap_or(0);
        let (mut t, mut local) = (vec![0.0; prep.n], vec![0.0; max_nb]);
        // t = M⁻¹ rhs1, blockwise, in-place solves on the block-local buffer.
        for (b, block) in prep.blocks.iter().enumerate() {
            let nb = block.len();
            for (l, &v) in block.iter().enumerate() {
                local[l] = rhs1[v];
            }
            oracle.factors[b].cholesky_solve_into(&mut local[..nb]);
            for (l, &v) in block.iter().enumerate() {
                t[v] = local[l];
            }
        }
        if prep.e.len() == 0 {
            dx.copy_from_slice(&t);
            return;
        }
        // dmu = S⁻¹ (E t − r_p2)
        for (ri, d) in dmu.iter_mut().enumerate() {
            *d = prep.e.dot(ri, &t) - r_p2[ri];
        }
        oracle.schur.cholesky_solve_into(dmu);
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
            oracle.factors[b].cholesky_solve_into(u);
            for (l, &v) in block.iter().enumerate() {
                dx[v] = t[v] - u[l];
            }
        }
    }

    /// The per-block blocked factorization the lane kernels replaced: each
    /// block's factor and the factored Schur matrix.
    struct PerBlock {
        factors: Vec<DenseMatrix>,
        schur: DenseMatrix,
    }

    /// The oracle factorization: the full Newton blocks (whose lower
    /// triangles the lower-only assembly reproduces bit for bit), the scalar
    /// blocked Cholesky per block, then the per-block Schur kernel.
    fn factor_per_block(prep: &Prepared, it: &Point) -> Result<PerBlock, LpError> {
        let mut factors: Vec<DenseMatrix> = prep
            .blocks
            .iter()
            .map(|b| DenseMatrix::zeros(b.len(), b.len()))
            .collect();
        let mut weights = vec![0.0; prep.g.max_run()];
        assemble_block_matrices(prep, it, &mut factors, &mut weights);
        for mb in &mut factors {
            mb.cholesky_in_place(REGULARIZATION)?;
        }
        let m_eq = prep.e.len();
        let mut schur = DenseMatrix::zeros(m_eq, m_eq);
        if m_eq > 0 {
            for (b, l) in factors.iter().enumerate() {
                accumulate_schur_block(prep, b, l, &mut schur);
            }
            for i in 0..m_eq {
                schur.add_diagonal(i, REGULARIZATION.max(1e-12));
            }
            schur.cholesky_in_place(REGULARIZATION)?;
        }
        Ok(PerBlock { factors, schur })
    }

    /// Block `b`'s factor as the lane kernels left it, lower triangle only.
    fn lane_factor(ws: &BlockedWorkspace, b: usize) -> DenseMatrix {
        let g = &ws.groups[ws.group_of[b]];
        let lane = b - g.first;
        let mut out = DenseMatrix::zeros(g.n, g.n);
        for i in 0..g.n {
            for j in 0..=i {
                out[(i, j)] = ws.factor(g)[(i * g.n + j) * g.lanes + lane];
            }
        }
        out
    }

    fn lower_bits(m: &DenseMatrix) -> Vec<u64> {
        (0..m.rows()).flat_map(|i| bits(&m.row(i)[..=i])).collect()
    }

    /// A K-location LP shaped like the obfuscation LP: `z_{i,l}` is variable
    /// `i·K + l` in block `l`; row `i` is an equality over `z_{i,·}` with its
    /// own coefficient per column, so each lane of a group couples through
    /// different values; each constrained pair `(i, j)` gives one run of K
    /// shifted copies.
    fn lane_test_lp(k: usize, seed: u64) -> (LpProblem, Vec<Vec<usize>>) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let var = |i: usize, l: usize| i * k + l;
        let mut p = LpProblem::new(k * k);
        p.set_objective_vector((0..k * k).map(|_| rng.gen_range(0.0..1.0)).collect())
            .unwrap();
        for i in 0..k {
            let row = (0..k)
                .map(|l| (var(i, l), rng.gen_range(0.5..2.0)))
                .collect();
            p.add_constraint(row, ConstraintSense::Eq, 1.0).unwrap();
        }
        for i in 0..k {
            for j in [(i + 1) % k, (i + 3) % k] {
                let bound = rng.gen_range(1.5..4.0);
                let pair = vec![(var(i, 0), 1.0), (var(j, 0), -bound)];
                p.add_shifted_constraints(pair, k, ConstraintSense::Le, 0.0)
                    .unwrap();
            }
        }
        let blocks = (0..k)
            .map(|l| (0..k).map(|i| var(i, l)).collect())
            .collect();
        (p, blocks)
    }

    /// Factor `it` with the lane kernels on `isa` and with the per-block
    /// oracle, and require the same bits: every block's factor, the Schur
    /// factor, and a Newton solve.  A failure must be the same error.
    fn assert_lanes_match_per_block(prep: &Prepared, it: &Point, isa: Isa, what: &str) {
        use rand::{Rng, SeedableRng};
        let mut ws = BlockedWorkspace::new(prep);
        ws.isa = isa;
        let lanes = factor_blocked(prep, &mut ws, it);
        let oracle = factor_per_block(prep, it);
        let oracle = match (lanes, oracle) {
            (Ok(()), Ok(oracle)) => oracle,
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{what} on {isa:?}: error");
                return;
            }
            (a, b) => panic!("{what} on {isa:?}: lanes {a:?}, per block {:?}", b.err()),
        };
        for (b, want) in oracle.factors.iter().enumerate() {
            assert_eq!(
                lower_bits(&lane_factor(&ws, b)),
                lower_bits(want),
                "{what} on {isa:?}: factor of block {b}"
            );
        }
        assert_eq!(
            lower_bits(&ws.schur),
            lower_bits(&oracle.schur),
            "{what} on {isa:?}: Schur factor"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(prep.n as u64);
        let rhs1: Vec<f64> = (0..prep.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let r_p2: Vec<f64> = (0..prep.e.len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let (mut dx, mut dmu) = (vec![f64::NAN; prep.n], vec![f64::NAN; prep.e.len()]);
        let mut scratch = NewtonScratch::new(prep);
        newton_solve_blocked(prep, &ws, &mut scratch, &rhs1, &r_p2, &mut dx, &mut dmu);
        let (mut want_dx, mut want_dmu) = (vec![0.0; prep.n], vec![0.0; prep.e.len()]);
        newton_solve_per_block(prep, &oracle, &rhs1, &r_p2, &mut want_dx, &mut want_dmu);
        assert_eq!(bits(&dx), bits(&want_dx), "{what} on {isa:?}: dx");
        assert_eq!(bits(&dmu), bits(&want_dmu), "{what} on {isa:?}: dmu");
    }

    /// `(blocks, lanes)` of every group.
    fn group_lanes(prep: &Prepared) -> Vec<(usize, usize)> {
        lane_groups(prep)
            .iter()
            .map(|g| (g.blocks, g.lanes))
            .collect()
    }

    #[test]
    fn lane_groups_split_same_shaped_blocks_into_eights_and_a_padded_rest() {
        let lanes_of = |k| group_lanes(&prepare_lane_lp(k, 1));
        assert_eq!(lanes_of(7), vec![(7, 8)]);
        assert_eq!(lanes_of(10), vec![(8, 8), (2, 8)]);
        assert_eq!(lanes_of(11), vec![(8, 8), (3, 8)]);
        assert_eq!(lanes_of(49), [vec![(8, 8); 6], vec![(1, 1)]].concat());
        assert_eq!(lanes_of(70), [vec![(8, 8); 8], vec![(6, 8)]].concat());
        // Blocks of another size or coupling pattern start a new group.
        for seed in 0..20 {
            let (p, blocks) = random_block_angular_lp(seed);
            let prep = prepare(&p, &blocks).unwrap();
            let groups = lane_groups(&prep);
            let mut next = 0;
            for g in &groups {
                assert_eq!(
                    g.first, next,
                    "seed {seed}: groups cover the blocks in order"
                );
                for b in g.first..g.first + g.blocks {
                    assert_eq!(prep.blocks[b].len(), g.n);
                    assert!(
                        prep.coupling_by_block[g.first].same_pattern(&prep.coupling_by_block[b])
                    );
                }
                next += g.blocks;
            }
            assert_eq!(next, blocks.len());
        }
    }

    fn prepare_lane_lp(k: usize, seed: u64) -> Prepared {
        let (p, blocks) = lane_test_lp(k, seed);
        prepare(&p, &blocks).unwrap()
    }

    /// Every instruction set this CPU runs, against the per-block kernels
    /// at random iterates: K = 7 (one group of 8 lanes, one of them
    /// padding), K = 10 and 11 (a group of 8 followed by one of 2 or 3
    /// blocks padded to 8 lanes) and K = 49 (six groups of 8 and one
    /// leftover block at 1 lane).
    #[test]
    fn lane_kernels_match_per_block_kernels_on_obfuscation_blocks() {
        use rand::SeedableRng;
        for isa in Isa::supported() {
            for (k, seed) in [(7, 1), (7, 2), (10, 3), (11, 4), (49, 5), (49, 6)] {
                let prep = prepare_lane_lp(k, seed);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let it = random_point(&mut rng, prep.n, prep.g.rows());
                assert_lanes_match_per_block(&prep, &it, isa, &format!("K = {k}, seed {seed}"));
            }
        }
    }

    /// Flushed entries and zero multipliers: rows whose barrier weight is
    /// tiny leave factor entries below the flush threshold.  With tiny
    /// weights in every other block, a group's lanes disagree on every zero
    /// skip (so the per-lane selects decide); with tiny weights everywhere,
    /// every lane skips together.  Every third column's equality
    /// coefficients are −0.0, so signed zeros enter `X`, and one of them
    /// becomes +∞, so zero multipliers meet infinite `X` entries.
    #[test]
    fn lane_kernels_match_per_block_kernels_on_flushed_and_zero_entries() {
        use rand::SeedableRng;
        for isa in Isa::supported() {
            for k in [7, 49] {
                let (mut p, blocks) = lane_test_lp(k, 5);
                for cons in &mut p.constraints[..k] {
                    for (v, a) in &mut cons.coeffs {
                        if (*v % k) % 3 == 0 {
                            *a = -0.0;
                        }
                    }
                }
                let prep = prepare(&p, &blocks).unwrap();
                for every_block in [false, true] {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
                    let mut it = random_point(&mut rng, prep.n, prep.g.rows());
                    for run in prep.g.iter() {
                        for (c, ri) in run.rows.clone().enumerate() {
                            if every_block || (run.block + c) % 2 == 0 {
                                it.lam[ri] = 1e-160;
                            }
                        }
                    }
                    let mut ws = BlockedWorkspace::new(&prep);
                    factor_blocked(&prep, &mut ws, &it).unwrap();
                    assert!(ws.factors.contains(&0.0));
                    let what = format!("K = {k}, tiny weights in every block: {every_block}");
                    assert_lanes_match_per_block(&prep, &it, isa, &what);
                }
                // An infinite coefficient `X` carries: block 3's equality
                // row 0 coefficient becomes +∞, and every row of block 3
                // but pair (4, 0)'s gets a tiny weight.  Its lane's `X`
                // then holds ±∞ in rows 0 and 4 of column 0 and zeros
                // elsewhere, and its multipliers are zero wherever they meet
                // those entries while the other lanes' are not: the lane
                // must keep its value, since 0·∞ is NaN.
                let mut prep = prep;
                let at = prep.e.range(0).start + 3;
                assert_eq!(prep.e.idx[at], 3);
                prep.e.val[at] = f64::INFINITY;
                let coupling = &mut prep.coupling_by_block[3];
                assert_eq!(coupling.eq_rows[0], 0);
                coupling.entries[coupling.ptr[0]] = (0, f64::INFINITY);
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let mut it = random_point(&mut rng, prep.n, prep.g.rows());
                for run in prep.g.iter().filter(|run| run.local != [4, 0]) {
                    if let Some(c) = 3usize.checked_sub(run.block).filter(|&c| c < run.len()) {
                        it.lam[run.rows.start + c] = 1e-160;
                    }
                }
                let what = format!("K = {k}, an infinite coupling coefficient");
                assert_lanes_match_per_block(&prep, &it, isa, &what);
            }
        }
    }

    /// More than one Cholesky panel (n = 70 > 64), with a padded group.
    /// (NaN pivots are checked on the dense kernels, where they can be
    /// placed: the Newton matrix caps every weight with `min`, which drops a
    /// NaN.)
    #[test]
    fn lane_kernels_match_per_block_kernels_on_multi_panel_blocks() {
        use rand::SeedableRng;
        let prep = prepare_lane_lp(70, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let it = random_point(&mut rng, prep.n, prep.g.rows());
        for isa in Isa::supported() {
            assert_lanes_match_per_block(&prep, &it, isa, "K = 70");
        }
    }

    /// The general coupling of `random_block_angular_lp`: blocks of several
    /// sizes and patterns, mostly in groups of one.
    #[test]
    fn lane_kernels_match_per_block_kernels_on_general_coupling() {
        use rand::SeedableRng;
        for isa in Isa::supported() {
            for seed in 0..24 {
                let (p, blocks) = random_block_angular_lp(seed);
                let prep = prepare(&p, &blocks).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let it = random_point(&mut rng, prep.n, prep.g.rows());
                assert_lanes_match_per_block(&prep, &it, isa, &format!("seed {seed}"));
            }
        }
    }

    // ---- Run sweeps against row-by-row evaluation. ----

    /// An inequality row equilibrated as `prepare` does, with its block: the
    /// row-by-row reference every run sweep must match.
    struct RefRow {
        idx: Vec<usize>,
        val: Vec<f64>,
        block: usize,
    }

    fn reference_rows(p: &LpProblem, prep: &Prepared) -> Vec<RefRow> {
        p.rows()
            .filter(|(c, _)| c.sense != ConstraintSense::Eq)
            .map(|(c, copy)| {
                let mut val = vec![0.0; c.coeffs.len()];
                equilibrate_row(&c.coeffs, c.sense, c.rhs, &mut val);
                let idx: Vec<usize> = c.terms(copy).map(|(j, _)| j).collect();
                let block = idx.first().map_or(0, |&j| prep.var_block[j]);
                RefRow { idx, val, block }
            })
            .collect()
    }

    fn ref_dot(row: &RefRow, x: &[f64]) -> f64 {
        row.idx.iter().zip(&row.val).map(|(&j, &a)| a * x[j]).sum()
    }

    fn ref_axpy(row: &RefRow, alpha: f64, y: &mut [f64]) {
        for (&j, &a) in row.idx.iter().zip(&row.val) {
            y[j] += alpha * a;
        }
    }

    /// The LPs the sweep tests run on, each with the run lengths it must
    /// prepare into.
    ///
    /// The first has K = 7 column blocks (`z_{i,l}` is variable `7i + l`,
    /// block `l`, as in the obfuscation LP) and groups of shifted copies of
    /// rows with one to three nonzeros: groups of K copies, groups of 3
    /// copies on either side of a column no group covers, one with
    /// descending indices, groups of one copy and a row with no variables.
    /// Each forms one run.  A group whose last copy crosses the last block
    /// boundary (its index shift wraps to block 0) is runs of length one.
    /// The second has two contiguous blocks whose groups shift every index
    /// by one inside one block, so consecutive copies share variables, or
    /// into the next block at another local position; they must stay runs
    /// of length one.  The third is the first with its blocks in reverse
    /// order, where every copy is a run of its own.
    fn sweep_inputs(seed: u64) -> Vec<(LpProblem, Vec<Vec<usize>>, Vec<usize>)> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let coeff = |rng: &mut StdRng| {
            let a: f64 = rng.gen_range(0.1..3.0);
            if rng.gen_bool(0.4) {
                -a
            } else {
                a
            }
        };
        let add = |p: &mut LpProblem, rng: &mut StdRng, vars: &[usize], copies: usize| {
            let row = vars.iter().map(|&v| (v, coeff(rng))).collect();
            let sense = if rng.gen_bool(0.5) {
                ConstraintSense::Le
            } else {
                ConstraintSense::Ge
            };
            p.add_shifted_constraints(row, copies, sense, rng.gen_range(-1.0..1.0))
                .unwrap();
        };

        let k = 7;
        let var = |i: usize, l: usize| i * k + l;
        let mut columns = LpProblem::new(k * k);
        columns
            .add_constraint(
                (0..k).map(|l| (var(0, l), 1.0)).collect(),
                ConstraintSense::Eq,
                1.0,
            )
            .unwrap();
        for (i, j) in [(0, 1), (1, 2), (4, 1)] {
            add(&mut columns, &mut rng, &[var(i, 0), var(j, 0)], k);
        }
        for l in [0, 4] {
            add(
                &mut columns,
                &mut rng,
                &[var(2, l), var(3, l), var(6, l)],
                3,
            );
        }
        add(&mut columns, &mut rng, &[var(5, 0)], 3);
        add(&mut columns, &mut rng, &[var(6, 3)], 1);
        add(&mut columns, &mut rng, &[var(6, 4), var(0, 4)], 1);
        columns
            .add_constraint(Vec::new(), ConstraintSense::Le, 1.0)
            .unwrap();
        add(&mut columns, &mut rng, &[var(3, 5)], 3);
        let column_blocks: Vec<Vec<usize>> = (0..k)
            .map(|l| (0..k).map(|i| var(i, l)).collect())
            .collect();
        // The same groups with the column blocks in reverse order: the next
        // column is the previous block, so no group forms a run.
        let reversed_blocks = column_blocks.iter().rev().cloned().collect();

        let mut contiguous = LpProblem::new(8);
        add(&mut contiguous, &mut rng, &[0, 1], 3);
        add(&mut contiguous, &mut rng, &[4, 5, 6], 2);
        // Variable 4 follows 3 into the next block, but at local position 0.
        add(&mut contiguous, &mut rng, &[3], 2);
        let contiguous_blocks = vec![(0..4).collect(), (4..8).collect()];

        vec![
            (columns.clone(), reversed_blocks, vec![1; 36]),
            (
                columns,
                column_blocks,
                vec![7, 7, 7, 3, 3, 3, 1, 1, 1, 1, 1, 1],
            ),
            (contiguous, contiguous_blocks, vec![1; 7]),
        ]
    }

    /// A random vector of `len` entries in `lo..hi`.
    fn random_vec(rng: &mut rand::rngs::StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        use rand::Rng;
        (0..len).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// A random strictly positive iterate.
    fn random_point(rng: &mut rand::rngs::StdRng, n: usize, m_in: usize) -> Point {
        Point {
            x: random_vec(rng, n, 0.05, 2.0),
            w: random_vec(rng, m_in, 0.05, 2.0),
            lam: random_vec(rng, m_in, 0.05, 2.0),
            s: random_vec(rng, n, 0.05, 2.0),
        }
    }

    fn sweep_cases() -> impl Iterator<Item = (u64, LpProblem, Prepared, Vec<RefRow>)> {
        (0..6u64).flat_map(|seed| {
            sweep_inputs(seed)
                .into_iter()
                .map(move |(p, blocks, lengths)| {
                    let prep = prepare(&p, &blocks).unwrap();
                    let runs: Vec<usize> = prep.g.iter().map(|run| run.len()).collect();
                    assert_eq!(runs, lengths, "seed {seed}: run lengths");
                    let rows = reference_rows(&p, &prep);
                    (seed, p, prep, rows)
                })
        })
    }

    #[test]
    fn sweep_gx_and_gty_match_row_by_row() {
        use rand::SeedableRng;
        for (seed, _, prep, rows) in sweep_cases() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = random_vec(&mut rng, prep.n, -2.0, 2.0);
            let coef = random_vec(&mut rng, rows.len(), -2.0, 2.0);
            let y0 = random_vec(&mut rng, prep.n, -1.0, 1.0);

            let mut gx = vec![f64::NAN; rows.len()];
            let mut y = y0.clone();
            for run in prep.g.iter() {
                run.dot_into(&x, &mut gx[run.rows.clone()]);
                run.scatter(&coef[run.rows.clone()], &mut y);
            }
            let ref_gx: Vec<f64> = rows.iter().map(|row| ref_dot(row, &x)).collect();
            let mut ref_y = y0;
            for (row, &k) in rows.iter().zip(&coef) {
                ref_axpy(row, k, &mut ref_y);
            }
            assert_eq!(bits(&gx), bits(&ref_gx), "seed {seed}: Gx");
            assert_eq!(bits(&y), bits(&ref_y), "seed {seed}: y + Gᵀc");
        }
    }

    #[test]
    fn sweep_direction_completion_matches_row_by_row() {
        use rand::SeedableRng;
        for (seed, _, prep, rows) in sweep_cases() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, m_in) = (prep.n, rows.len());
            let it = random_point(&mut rng, n, m_in);
            let p1 = random_vec(&mut rng, m_in, -1.0, 1.0);
            let rc = Targets {
                x: random_vec(&mut rng, n, -1.0, 1.0),
                w: random_vec(&mut rng, m_in, -1.0, 1.0),
            };
            let mut d = Point::filled(n, m_in, f64::NAN);
            d.x = random_vec(&mut rng, n, -3.0, 3.0);
            let steps = complete_direction(&prep, &it, &p1, &rc, &mut d);

            let mut r = Point::filled(n, m_in, 0.0);
            r.x.clone_from(&d.x);
            let (mut step_x, mut step_w, mut step_lam, mut step_s) = (1.0, 1.0, 1.0, 1.0);
            for j in 0..n {
                r.s[j] = (rc.x[j] - it.s[j] * r.x[j]) / it.x[j];
                shrink_step(&mut step_x, it.x[j], r.x[j]);
                shrink_step(&mut step_s, it.s[j], r.s[j]);
            }
            for (ri, row) in rows.iter().enumerate() {
                r.w[ri] = p1[ri] - ref_dot(row, &r.x);
                r.lam[ri] = (rc.w[ri] - it.lam[ri] * r.w[ri]) / it.w[ri];
                shrink_step(&mut step_w, it.w[ri], r.w[ri]);
                shrink_step(&mut step_lam, it.lam[ri], r.lam[ri]);
            }
            let ref_steps = (f64::min(step_x, step_w), f64::min(step_s, step_lam));
            assert_eq!(bits(&d.w), bits(&r.w), "seed {seed}: dw");
            assert_eq!(bits(&d.lam), bits(&r.lam), "seed {seed}: dlam");
            assert_eq!(bits(&d.s), bits(&r.s), "seed {seed}: ds");
            assert_eq!(
                (steps.0.to_bits(), steps.1.to_bits()),
                (ref_steps.0.to_bits(), ref_steps.1.to_bits()),
                "seed {seed}: steps"
            );
        }
    }

    #[test]
    fn sweep_band_scatter_matches_row_by_row() {
        use rand::SeedableRng;
        for (seed, _, prep, rows) in sweep_cases() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n, m_in) = (prep.n, rows.len());
            let mut it = random_point(&mut rng, n, m_in);
            let mut dir = Point {
                x: random_vec(&mut rng, n, -0.5, 0.5),
                w: random_vec(&mut rng, m_in, -0.5, 0.5),
                lam: random_vec(&mut rng, m_in, -0.5, 0.5),
                s: random_vec(&mut rng, n, -0.5, 0.5),
            };
            // The first run sits inside the band (its scatter is skipped) and
            // some pairs sit at their primal bound.
            for ri in prep.g.run(0).rows {
                (it.w[ri], it.lam[ri], dir.w[ri], dir.lam[ri]) = (1.0, 1.0, 0.0, 0.0);
            }
            it.w[m_in - 2] = BOUNDARY / 2.0;
            it.x[1] = BOUNDARY;
            let band = Band {
                trial_p: 0.7,
                trial_d: 0.9,
                lo: 0.5,
                hi: 1.5,
            };
            let mut t = Targets {
                x: vec![f64::NAN; n],
                w: vec![f64::NAN; m_in],
            };
            let mut coef = vec![f64::NAN; prep.g.max_run()];
            let mut rhs1 = vec![f64::NAN; n];
            let any = band_rhs(&prep, &it, &dir, &band, &mut t, &mut coef, &mut rhs1);

            let mut ref_any = false;
            let mut ref_rhs1 = vec![0.0; n];
            let mut ref_t = Targets {
                x: vec![0.0; n],
                w: vec![0.0; m_in],
            };
            for (ri, row) in rows.iter().enumerate() {
                ref_t.w[ri] = if it.w[ri] <= BOUNDARY {
                    0.0
                } else {
                    band.violation(it.w[ri], dir.w[ri], it.lam[ri], dir.lam[ri])
                };
                if ref_t.w[ri] != 0.0 {
                    ref_any = true;
                    ref_axpy(row, -ref_t.w[ri] / it.w[ri], &mut ref_rhs1);
                }
            }
            for j in 0..n {
                ref_t.x[j] = if it.x[j] <= BOUNDARY {
                    0.0
                } else {
                    band.violation(it.x[j], dir.x[j], it.s[j], dir.s[j])
                };
                ref_any |= ref_t.x[j] != 0.0;
                ref_rhs1[j] += ref_t.x[j] / it.x[j];
            }
            assert!(ref_t.w.contains(&0.0) && ref_t.w.iter().any(|&v| v != 0.0));
            assert_eq!(any, ref_any, "seed {seed}: outliers");
            assert_eq!(bits(&t.w), bits(&ref_t.w), "seed {seed}: t.w");
            assert_eq!(bits(&t.x), bits(&ref_t.x), "seed {seed}: t.x");
            assert_eq!(bits(&rhs1), bits(&ref_rhs1), "seed {seed}: rhs1");
        }
    }

    #[test]
    fn sweep_block_assembly_matches_row_by_row() {
        use rand::SeedableRng;
        for (seed, _, prep, rows) in sweep_cases() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let it = random_point(&mut rng, prep.n, rows.len());
            for lower in [true, false] {
                let zeros = || -> Vec<DenseMatrix> {
                    prep.blocks
                        .iter()
                        .map(|b| DenseMatrix::zeros(b.len(), b.len()))
                        .collect()
                };
                // Stale entries must not survive the assembly.
                let mats = if lower {
                    let mut ws = BlockedWorkspace::new(&prep);
                    ws.factors.fill(f64::NAN);
                    ws.weights.fill(f64::NAN);
                    assemble_lanes(&prep, &it, &mut ws);
                    (0..prep.blocks.len())
                        .map(|b| lane_factor(&ws, b))
                        .collect()
                } else {
                    let mut mats = zeros();
                    for mb in &mut mats {
                        mb.fill(f64::NAN);
                    }
                    let mut weights = vec![f64::NAN; prep.g.max_run()];
                    assemble_block_matrices(&prep, &it, &mut mats, &mut weights);
                    mats
                };

                let mut reference = zeros();
                for (ri, row) in rows.iter().enumerate() {
                    let local: Vec<usize> = row.idx.iter().map(|&v| prep.var_local[v]).collect();
                    let weight = barrier_weight(it.lam[ri], it.w[ri]);
                    let mb = &mut reference[row.block];
                    if lower {
                        mb.add_scaled_outer_sparse_lower(&local, &row.val, weight);
                    } else {
                        mb.add_scaled_outer_sparse(&local, &row.val, weight);
                    }
                }
                for (mb, block) in reference.iter_mut().zip(&prep.blocks) {
                    for (local, &v) in block.iter().enumerate() {
                        mb.add_diagonal(local, (it.s[v] / it.x[v]).min(1e10));
                    }
                }
                for (b, (got, want)) in mats.iter().zip(&reference).enumerate() {
                    for i in 0..got.rows() {
                        let upto = if lower { i + 1 } else { got.cols() };
                        assert_eq!(
                            bits(&got.row(i)[..upto]),
                            bits(&want.row(i)[..upto]),
                            "seed {seed}, lower {lower}: block {b} row {i}"
                        );
                    }
                }
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

    /// Rewrite every inequality constraint of `prepared` to the
    /// coefficients of `target` (same pattern).
    fn update_inequalities(prepared: &mut PreparedLp, target: &LpProblem) {
        for (ci, cons) in target.constraints().iter().enumerate() {
            if cons.sense != ConstraintSense::Eq {
                prepared.update_constraint(ci, &cons.coeffs).unwrap();
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

        // The obfuscation LP's write: each pair's K copies, one run, in one
        // update.
        let k = 5;
        let (loose, blocks) = geo_ind_problem(k, 0.8f64.exp());
        let (tight, _) = geo_ind_problem(k, 0.5f64.exp());
        let mut prepared = PreparedLp::new(loose, &blocks).unwrap();
        let runs: Vec<_> = prepared.inequality_runs().collect();
        assert_eq!(runs.len(), k * (k - 1));
        assert!(runs.iter().all(|run| run.len() == k));
        for (pair, (i, j)) in geo_ind_pairs(k).enumerate() {
            let bound = -0.5f64.exp();
            prepared
                .update_constraint(k + pair, &[(i * k, 1.0), (j * k, bound)])
                .unwrap();
        }
        assert_eq!(prepared.problem(), &tight);
        assert_bit_identical(
            &prepared.solve_with_warm(&opts, None).unwrap(),
            &BlockAngularSolver::new(blocks, opts).solve(&tight).unwrap(),
        );

        // A `≥` group of three copies that is one run, beside a group whose
        // second copy wraps to block 0 at another local position, so its
        // copies are two runs: each update is equilibrated as a fresh
        // preparation would, and written to every run of its group.
        let build = |a: f64, b: f64| {
            let mut p = LpProblem::new(9);
            p.set_objective_vector(vec![1.0; 9]).unwrap();
            p.add_shifted_constraints(vec![(0, a), (3, b)], 3, ConstraintSense::Ge, 0.5)
                .unwrap();
            p.add_shifted_constraints(vec![(2, b)], 2, ConstraintSense::Le, -0.0)
                .unwrap();
            p
        };
        let blocks: Vec<Vec<usize>> = (0..3).map(|l| vec![l, 3 + l, 6 + l]).collect();
        let mut prepared = PreparedLp::new(build(1.0, -2.0), &blocks).unwrap();
        prepared
            .update_constraint(0, &[(0, 4.0), (3, -0.5)])
            .unwrap();
        prepared.update_constraint(1, &[(2, -0.5)]).unwrap();
        let fresh = prepare(&build(4.0, -0.5), &blocks).unwrap();
        assert_eq!(
            prepared.inequality_runs().collect::<Vec<_>>(),
            vec![0..3, 3..4, 4..5]
        );
        let h = |g: &RowRuns| g.runs.iter().map(|run| run.h).collect::<Vec<_>>();
        assert_eq!(bits(&prepared.prep.g.val), bits(&fresh.g.val));
        assert_eq!(bits(&h(&prepared.prep.g)), bits(&h(&fresh.g)));
        assert_eq!(prepared.problem(), &build(4.0, -0.5));
    }

    /// The ordered pairs of `geo_ind_problem`, in constraint order.
    fn geo_ind_pairs(k: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..k).flat_map(move |i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)))
    }

    /// The miniature obfuscation LP of `stochastic_problem` with its ratio
    /// rows as the obfuscation LP states them: one constraint per pair with
    /// K shifted copies, one run each.
    fn geo_ind_problem(k: usize, factor: f64) -> (LpProblem, Vec<Vec<usize>>) {
        let (plain, blocks) = stochastic_problem(k, factor);
        let mut p = LpProblem::new(k * k);
        p.set_objective_vector(plain.objective().to_vec()).unwrap();
        for cons in plain.constraints().iter().take(k) {
            p.add_constraint(cons.coeffs.clone(), cons.sense, cons.rhs)
                .unwrap();
        }
        for (i, j) in geo_ind_pairs(k) {
            let pair = vec![(i * k, 1.0), (j * k, -factor)];
            p.add_shifted_constraints(pair, k, ConstraintSense::Le, 0.0)
                .unwrap();
        }
        (p, blocks)
    }

    #[test]
    fn prepared_lp_refuses_equality_and_pattern_updates() {
        let (p, blocks) = geo_ind_problem(3, 0.5f64.exp());
        let mut prepared = PreparedLp::new(p.clone(), &blocks).unwrap();
        // Constraints 0..3 are the row-sum equalities; constraint 3 is the
        // first pair's ratio rows.
        assert_eq!(
            prepared.update_constraint(0, &p.constraints()[0].coeffs),
            Err(LpError::EqualityRowUpdate { constraint: 0 })
        );
        let row = p.constraints()[3].coeffs.clone();
        let mismatch = Err(LpError::RowPatternMismatch { constraint: 3 });
        let swapped = vec![row[1], row[0]];
        assert_eq!(prepared.update_constraint(3, &swapped), mismatch);
        assert_eq!(prepared.update_constraint(3, &row[..1]), mismatch);
        let moved = vec![row[0], (row[1].0 + 1, row[1].1)];
        assert_eq!(prepared.update_constraint(3, &moved), mismatch);
        let nan = vec![row[0], (row[1].0, f64::NAN)];
        assert_eq!(
            prepared.update_constraint(3, &nan),
            Err(LpError::NonFiniteCoefficient)
        );
        let count = p.constraints().len();
        assert_eq!(
            prepared.update_constraint(count, &row),
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
