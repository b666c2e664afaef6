//! Linear-programming solvers built from scratch.
//!
//! The CORGI paper generates every obfuscation matrix by solving a linear program
//! (Eq. 8 for the non-robust baseline, Eq. 16 for the δ-prunable robust matrix)
//! with MATLAB's `linprog`.  Mature LP solvers are not available as offline Rust
//! crates, so this crate implements the optimization substrate itself:
//!
//! * [`SimplexSolver`] — a dense two-phase tableau simplex.  Exact (up to floating
//!   point), handles infeasible and unbounded problems, intended for problems with
//!   up to a few thousand tableau entries.  A test reference only.
//! * [`InteriorPointSolver`] — a primal–dual path-following interior-point method
//!   with Mehrotra predictor–corrector steps.  Works on the *mixed form*
//!   `min cᵀx  s.t.  Gx ≤ h,  Ex = f,  x ≥ 0` and reduces every Newton step to a
//!   positive-definite system of size `n × n` (number of variables), so it scales
//!   to the tens of thousands of Geo-Ind constraints the paper's formulation
//!   produces without ever materializing the constraint matrix squared.  It
//!   treats all variables as one block, and is a test reference only.
//! * [`BlockAngularSolver`] — the same interior-point engine exploiting the
//!   *block-angular* structure of the obfuscation LP: every ε-Geo-Ind inequality
//!   touches entries of a single column of the obfuscation matrix, while the
//!   row-stochasticity equalities couple the columns.  The Newton matrix is then
//!   block diagonal plus a low-rank coupling handled by a Schur complement, making
//!   a K = 49…343 location instance solvable in seconds.  (The paper lists this
//!   kind of optimization decomposition as future work, Section 5.3.)  This is
//!   the solver behind every obfuscation matrix `corgi-core` produces.
//!
//! * [`PreparedLp`] — a block-angular problem prepared once (rows
//!   equilibrated, each constraint's shifted copies stored as one run)
//!   whose inequality coefficients can be rewritten in place between solves.
//!   Algorithm 1's reserved-budget refinements change only the Geo-Ind
//!   bounds, so each refinement re-solves the same prepared LP instead of
//!   rebuilding it.
//!
//! The [`LpProblem`] builder states a constraint that repeats with shifted
//! variable indices once ([`LpProblem::add_shifted_constraints`]), as the
//! paper writes the Geo-Ind constraints: one per constrained pair, "for all
//! l".  The builder plus the [`LpSolver`] trait give the rest of the
//! workspace a solver-agnostic API; tests and the ablation bench use it to
//! check the block-angular solver against the simplex and generic
//! interior-point oracles on the same LP.  Every solve runs on the calling thread;
//! callers with many independent LPs (one per subtree of a privacy forest)
//! parallelize across solves, not inside them.

#![warn(missing_docs)]

mod dense;
mod error;
mod interior;
mod problem;
mod simplex;
mod solution;

pub use dense::{DenseMatrix, DEFAULT_CHOLESKY_BLOCK, FLUSH_THRESHOLD};
pub use error::LpError;
pub use interior::{
    bench_support, BlockAngularSolver, InteriorPointOptions, InteriorPointSolver, KernelStrategy,
    PreparedLp,
};
pub use problem::{Constraint, ConstraintSense, LpProblem};
pub use simplex::SimplexSolver;
pub use solution::{LpSolution, SolveStatus, WarmStart};

/// Common interface implemented by every solver in this crate.
pub trait LpSolver {
    /// Solve the given minimization problem.
    fn solve(&self, problem: &LpProblem) -> Result<LpSolution, LpError>;

    /// Short human-readable name of the solver (used in experiment reports).
    fn name(&self) -> &'static str;
}
