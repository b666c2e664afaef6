//! Dense two-phase tableau simplex.
//!
//! This is the exact reference solver of the crate.  It converts the problem to
//! standard form (equalities with slack/surplus/artificial variables, non-negative
//! right-hand sides), runs phase 1 to find a basic feasible solution and phase 2 to
//! optimize the true objective.  Pivoting uses Dantzig's rule with an automatic
//! switch to Bland's rule when the objective stalls, which guarantees termination.

use crate::{ConstraintSense, LpError, LpProblem, LpSolution, SolveStatus};

/// Dense two-phase tableau simplex solver.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    /// Numerical tolerance used for optimality and feasibility tests.
    pub tolerance: f64,
    /// Hard cap on the number of pivots across both phases.
    pub max_iterations: usize,
}

impl Default for SimplexSolver {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 50_000,
        }
    }
}

struct Tableau {
    /// (m+1) × (n_total+1); last row is the objective (reduced costs, negated
    /// objective value in the corner), last column the right-hand side.
    data: Vec<Vec<f64>>,
    basis: Vec<usize>,
    m: usize,
    n_total: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.data[row][self.n_total]
    }

    fn objective_value(&self) -> f64 {
        -self.data[self.m][self.n_total]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.data[row][col];
        debug_assert!(pivot_val.abs() > 0.0);
        let inv = 1.0 / pivot_val;
        for v in self.data[row].iter_mut() {
            *v *= inv;
        }
        for r in 0..=self.m {
            if r == row {
                continue;
            }
            let factor = self.data[r][col];
            if factor == 0.0 {
                continue;
            }
            // data[r] -= factor * data[row]
            let (head, tail) = if r < row {
                let (a, b) = self.data.split_at_mut(row);
                (&mut a[r], &b[0])
            } else {
                let (a, b) = self.data.split_at_mut(r);
                (&mut b[0], &a[row])
            };
            for (hv, tv) in head.iter_mut().zip(tail.iter()) {
                *hv -= factor * tv;
            }
        }
        self.basis[row] = col;
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

fn run_phase(
    tab: &mut Tableau,
    tol: f64,
    iter_budget: &mut usize,
    allowed_cols: usize,
) -> PhaseOutcome {
    let mut stall_count = 0usize;
    let mut last_objective = tab.objective_value();
    loop {
        if *iter_budget == 0 {
            return PhaseOutcome::IterationLimit;
        }
        // Entering variable.
        let use_bland = stall_count > 200;
        let mut entering: Option<usize> = None;
        if use_bland {
            for j in 0..allowed_cols {
                if tab.data[tab.m][j] < -tol {
                    entering = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -tol;
            for j in 0..allowed_cols {
                let rc = tab.data[tab.m][j];
                if rc < best {
                    best = rc;
                    entering = Some(j);
                }
            }
        }
        let Some(col) = entering else {
            return PhaseOutcome::Optimal;
        };
        // Ratio test.  Among rows achieving (essentially) the minimum ratio, pick
        // the one with the largest pivot element: on highly degenerate problems
        // (like the obfuscation LPs, where most ratios are exactly zero) this
        // keeps the tableau numerically stable.  Under Bland's column rule the
        // tie-break switches to the smallest basis index, which is what makes the
        // anti-cycling guarantee hold.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut best_pivot = 0.0f64;
        for r in 0..tab.m {
            let a = tab.data[r][col];
            if a > tol {
                let ratio = tab.rhs(r).max(0.0) / a;
                let strictly_better = ratio < best_ratio - 1e-10;
                let tied = (ratio - best_ratio).abs() <= 1e-10;
                let better = strictly_better
                    || (tied
                        && if use_bland {
                            leaving.is_some_and(|lr| tab.basis[r] < tab.basis[lr])
                        } else {
                            a > best_pivot
                        });
                if better {
                    best_ratio = ratio;
                    best_pivot = a;
                    leaving = Some(r);
                }
            }
        }
        let Some(row) = leaving else {
            return PhaseOutcome::Unbounded;
        };
        tab.pivot(row, col);
        *iter_budget -= 1;
        let obj = tab.objective_value();
        if (last_objective - obj).abs() <= tol {
            stall_count += 1;
        } else {
            stall_count = 0;
            last_objective = obj;
        }
    }
}

impl SimplexSolver {
    /// Create a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve the given minimization problem.
    pub fn solve(&self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        let n = problem.num_vars();
        if n == 0 {
            return Err(LpError::EmptyProblem);
        }
        let m = problem.num_constraints();
        let tol = self.tolerance;

        // Count extra columns: one slack per Le, one surplus per Ge, one artificial
        // per Ge/Eq row (and per Le row whose RHS is negative after normalization —
        // handled by flipping the row so RHS ≥ 0 first).
        //
        // Normalize: make every RHS non-negative by multiplying rows by -1 (which
        // flips Le ↔ Ge).
        struct Row {
            coeffs: Vec<(usize, f64)>,
            sense: ConstraintSense,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(m);
        for (c, copy) in problem.rows() {
            // Row equilibration: scale each row to unit max-absolute coefficient so
            // that constraints with very large coefficients (e.g. the e^{ε·d}
            // Geo-Ind bounds) do not dominate the pivoting tolerances.
            let max_abs = c.coeffs.iter().fold(0.0f64, |mx, (_, a)| mx.max(a.abs()));
            let scale = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
            let mut coeffs: Vec<(usize, f64)> =
                c.terms(copy).map(|(j, a)| (j, a * scale)).collect();
            let mut sense = c.sense;
            let mut rhs = c.rhs * scale;
            if rhs < 0.0 {
                for (_, a) in coeffs.iter_mut() {
                    *a = -*a;
                }
                rhs = -rhs;
                sense = match sense {
                    ConstraintSense::Le => ConstraintSense::Ge,
                    ConstraintSense::Ge => ConstraintSense::Le,
                    ConstraintSense::Eq => ConstraintSense::Eq,
                };
            }
            rows.push(Row { coeffs, sense, rhs });
        }

        let num_slack = rows
            .iter()
            .filter(|r| matches!(r.sense, ConstraintSense::Le | ConstraintSense::Ge))
            .count();
        let num_artificial = rows
            .iter()
            .filter(|r| matches!(r.sense, ConstraintSense::Ge | ConstraintSense::Eq))
            .count();
        let n_structural = n;
        let n_with_slack = n_structural + num_slack;
        let n_total = n_with_slack + num_artificial;

        let mut data = vec![vec![0.0; n_total + 1]; m + 1];
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n_structural;
        let mut art_idx = n_with_slack;
        for (i, row) in rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                data[i][j] = a;
            }
            data[i][n_total] = row.rhs;
            match row.sense {
                ConstraintSense::Le => {
                    data[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                ConstraintSense::Ge => {
                    data[i][slack_idx] = -1.0;
                    slack_idx += 1;
                    data[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
                ConstraintSense::Eq => {
                    data[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }

        let mut tab = Tableau {
            data,
            basis,
            m,
            n_total,
        };
        let mut iter_budget = self.max_iterations;
        let mut total_iterations = 0usize;

        // ---- Phase 1: minimize the sum of artificial variables. ----
        if num_artificial > 0 {
            // Objective row: sum of the rows whose basis is an artificial, negated
            // so that reduced costs of the artificial basis are zero.
            for j in 0..=n_total {
                let mut v = 0.0;
                for i in 0..m {
                    if tab.basis[i] >= n_with_slack {
                        v += tab.data[i][j];
                    }
                }
                tab.data[m][j] = -v;
            }
            // Artificial columns themselves should have zero reduced cost initially.
            for a in n_with_slack..n_total {
                tab.data[m][a] = 0.0;
            }
            let before = iter_budget;
            let outcome = run_phase(&mut tab, tol, &mut iter_budget, n_with_slack);
            total_iterations += before - iter_budget;
            match outcome {
                PhaseOutcome::IterationLimit => {
                    return Ok(LpSolution {
                        status: SolveStatus::IterationLimit,
                        objective: f64::NAN,
                        x: vec![0.0; n],
                        iterations: total_iterations,
                        warm: None,
                    });
                }
                PhaseOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by 0; this cannot happen
                    // except through numerical trouble.
                    return Err(LpError::NumericalFailure(
                        "phase-1 reported unbounded".to_string(),
                    ));
                }
                PhaseOutcome::Optimal => {}
            }
            let phase1_value = -tab.objective_value();
            if phase1_value.abs() > 1e-6 {
                return Ok(LpSolution {
                    status: SolveStatus::Infeasible,
                    objective: f64::NAN,
                    x: vec![0.0; n],
                    iterations: total_iterations,
                    warm: None,
                });
            }
            // Drive any artificial variables that remain basic (at zero level) out
            // of the basis when possible.
            for i in 0..m {
                if tab.basis[i] >= n_with_slack {
                    if let Some(col) = (0..n_with_slack).find(|&j| tab.data[i][j].abs() > 1e-8) {
                        tab.pivot(i, col);
                    }
                }
            }
        }

        // ---- Phase 2: original objective. ----
        for j in 0..=n_total {
            tab.data[m][j] = 0.0;
        }
        for (j, &c) in problem.objective().iter().enumerate() {
            tab.data[m][j] = c;
        }
        // Price out the basic variables so reduced costs of the basis are zero.
        for i in 0..m {
            let b = tab.basis[i];
            let cost = tab.data[m][b];
            if cost != 0.0 {
                for j in 0..=n_total {
                    tab.data[m][j] -= cost * tab.data[i][j];
                }
            }
        }
        let before = iter_budget;
        let outcome = run_phase(&mut tab, tol, &mut iter_budget, n_with_slack);
        total_iterations += before - iter_budget;

        let mut status = match outcome {
            PhaseOutcome::Optimal => SolveStatus::Optimal,
            PhaseOutcome::Unbounded => SolveStatus::Unbounded,
            PhaseOutcome::IterationLimit => SolveStatus::IterationLimit,
        };

        let mut x = vec![0.0; n];
        for i in 0..m {
            if tab.basis[i] < n {
                x[tab.basis[i]] = tab.rhs(i).max(0.0);
            }
        }
        // Guard against numerical drift in the dense tableau: never report a point
        // that violates the original constraints as "optimal".
        if status == SolveStatus::Optimal {
            let scale = 1.0
                + problem
                    .constraints()
                    .iter()
                    .map(|c| c.rhs.abs())
                    .fold(0.0f64, f64::max);
            if problem.max_violation(&x) > 1e-6 * scale {
                status = SolveStatus::IterationLimit;
            }
        }
        let objective = problem.objective_value(&x);
        Ok(LpSolution {
            status,
            objective,
            x,
            iterations: total_iterations,
            warm: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &LpProblem) -> LpSolution {
        SimplexSolver::new().solve(p).unwrap()
    }

    #[test]
    fn simple_maximization_as_minimization() {
        // max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  (classic Dantzig example)
        // optimum x=2, y=6, objective 36.
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![-3.0, -5.0]).unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        p.add_constraint(vec![(1, 2.0)], ConstraintSense::Le, 12.0)
            .unwrap();
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintSense::Le, 18.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(
            (s.objective + 36.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y  s.t. x + y = 10, x ≥ 3  ⇒ x can grow to 10 (y=0): obj = 10?
        // check: objective x + 2y with x+y=10 ⇒ obj = 10 + y, minimized at y=0 ⇒ 10.
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![1.0, 2.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 10.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 3.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.x[0] - 10.0).abs() < 1e-6);
        assert!(s.x[1].abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        // x ≥ 5 and x ≤ 2 cannot both hold.
        let mut p = LpProblem::new(1);
        p.set_objective(0, 1.0).unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 5.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x with x ≥ 1: unbounded below.
        let mut p = LpProblem::new(1);
        p.set_objective(0, -1.0).unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_handled() {
        // -x ≤ -2  ⇔  x ≥ 2; minimize x ⇒ 2.
        let mut p = LpProblem::new(1);
        p.set_objective(0, 1.0).unwrap();
        p.add_constraint(vec![(0, -1.0)], ConstraintSense::Le, -2.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Several redundant constraints through the same vertex.
        let mut p = LpProblem::new(2);
        p.set_objective_vector(vec![-1.0, -1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        p.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        p.add_constraint(vec![(1, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn transportation_problem() {
        // 2 sources (supply 3, 4) × 2 sinks (demand 2, 5), costs [[1, 3], [2, 1]].
        // Optimal: x00=2, x01=1, x11=4 ⇒ cost 2 + 3 + 4 = 9.
        let mut p = LpProblem::new(4); // x00 x01 x10 x11
        p.set_objective_vector(vec![1.0, 3.0, 2.0, 1.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 3.0)
            .unwrap();
        p.add_constraint(vec![(2, 1.0), (3, 1.0)], ConstraintSense::Eq, 4.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintSense::Eq, 2.0)
            .unwrap();
        p.add_constraint(vec![(1, 1.0), (3, 1.0)], ConstraintSense::Eq, 5.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(
            (s.objective - 9.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn solution_is_feasible_for_mixed_senses() {
        let mut p = LpProblem::new(3);
        p.set_objective_vector(vec![2.0, 1.0, 3.0]).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintSense::Eq, 6.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        p.add_constraint(vec![(2, 1.0)], ConstraintSense::Le, 2.0)
            .unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn empty_problem_rejected() {
        let p = LpProblem::new(0);
        assert!(matches!(
            SimplexSolver::new().solve(&p),
            Err(LpError::EmptyProblem)
        ));
    }

    #[test]
    fn unconstrained_min_at_zero() {
        // With only x ≥ 0 and positive costs, the optimum is the origin.
        let mut p = LpProblem::new(3);
        p.set_objective_vector(vec![1.0, 2.0, 3.0]).unwrap();
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.objective.abs() < 1e-9);
    }
}
