//! Solver output types.

use serde::{Deserialize, Serialize};

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// An optimal solution was found within tolerance.
    Optimal,
    /// The problem has no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The iteration limit was reached before convergence; the returned point is
    /// the best iterate found (it may be slightly infeasible).
    IterationLimit,
}

/// A converged interior-point iterate, captured from an `Optimal` solve and
/// reusable to *warm-start* the next solve of a nearby problem.
///
/// Grid-adjacent obfuscation LPs (`(privacy_level, δ)` neighbours, or the
/// successive refinement iterations of the robust Algorithm 1) differ only in
/// a few constraint coefficients; restarting the path-following from the
/// neighbour's converged point instead of the cold `x = s = 1` interior skips
/// most of the centering work.  Before use the iterate is validated (lengths,
/// finiteness, `mu > 0`) and shifted back to strict interior feasibility; an
/// unusable warm start silently degrades to the cold start, never to an error.
///
/// `y` lives in the solver's internal row-equilibrated constraint space.  The
/// equilibration is deterministic per problem, so transferring `y` between
/// near-identical problems is sound as a heuristic; the solver only uses it
/// as an initial guess.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStart {
    /// Primal iterate (length = number of variables).
    pub x: Vec<f64>,
    /// Constraint multipliers (length = number of equality rows + number of
    /// inequality rows): the equality multipliers μ first, then the
    /// inequality multipliers λ, both in the solver's row-equilibrated
    /// space.  Keeping λ is what makes the restart nearly *dual*-feasible —
    /// reconstructing λ from complementarity alone restarts with an O(1)
    /// dual residual at a near-zero barrier level, where the path-following
    /// has no room left to repair it.
    pub y: Vec<f64>,
    /// Dual slacks of the `x ≥ 0` bounds (length = number of variables).
    pub s: Vec<f64>,
    /// Complementarity gap μ at capture; the restart re-centers at roughly
    /// this barrier level (floored away from zero for numerical safety).
    pub mu: f64,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Outcome of the solve.
    pub status: SolveStatus,
    /// Objective value at `x` (meaningful when `status` is `Optimal` or `IterationLimit`).
    pub objective: f64,
    /// Primal solution (length = number of variables).
    pub x: Vec<f64>,
    /// Number of iterations performed (simplex pivots or interior-point steps).
    pub iterations: usize,
    /// Converged interior-point iterate for warm-starting a nearby solve.
    /// `Some` exactly when an interior-point solver finished `Optimal`; the
    /// simplex solver never captures one.
    pub warm: Option<WarmStart>,
}

impl LpSolution {
    /// Whether the returned point is worth consuming at all: optimal, or the
    /// best iterate of a solver that hit its iteration limit (callers like the
    /// obfuscation pipeline repair such points towards feasibility).
    /// [`SolveStatus::Infeasible`] and [`SolveStatus::Unbounded`] carry no
    /// meaningful `x`.
    pub fn is_usable(&self) -> bool {
        matches!(
            self.status,
            SolveStatus::Optimal | SolveStatus::IterationLimit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usable_statuses() {
        let base = LpSolution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            x: vec![],
            iterations: 0,
            warm: None,
        };
        for (status, usable) in [
            (SolveStatus::Optimal, true),
            (SolveStatus::IterationLimit, true),
            (SolveStatus::Infeasible, false),
            (SolveStatus::Unbounded, false),
        ] {
            let s = LpSolution {
                status,
                ..base.clone()
            };
            assert_eq!(s.is_usable(), usable, "{status:?}");
        }
    }
}
