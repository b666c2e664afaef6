//! Linear-program builder.

use crate::LpError;
use serde::{Deserialize, Serialize};

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintSense {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx ≥ b`
    Ge,
    /// `aᵀx = b`
    Eq,
}

/// A sparse linear constraint `aᵀx {≤,≥,=} b`, stated once for `copies`
/// shifted copies: copy `c` is `coeffs` with every variable index shifted
/// by `c`, with the same sense and right-hand side.
///
/// A plain constraint is one copy.  The Geo-Ind constraints of the
/// obfuscation LP are one constraint per constrained pair with one copy per
/// reported column (Eq. 4 "for all l").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse coefficients of copy 0 as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Number of shifted copies (rows) the constraint stands for.
    pub copies: usize,
    /// Constraint sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// The terms of copy `c`, in pattern order: `coeffs` with every variable
    /// index shifted by `c`.
    pub(crate) fn terms(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.coeffs.iter().map(move |&(j, a)| (j + c, a))
    }

    /// Violation of copy `c` at `x` (0 when satisfied).
    ///
    /// For `≤` this is `max(0, aᵀx − b)`, for `≥` it is `max(0, b − aᵀx)`,
    /// for `=` it is `|aᵀx − b|`.  A non-finite `aᵀx` (a NaN or infinite
    /// term) is an infinite violation.
    fn violation(&self, c: usize, x: &[f64]) -> f64 {
        let lhs: f64 = self.terms(c).map(|(j, a)| a * x[j]).sum();
        if !lhs.is_finite() {
            return f64::INFINITY;
        }
        match self.sense {
            ConstraintSense::Le => (lhs - self.rhs).max(0.0),
            ConstraintSense::Ge => (self.rhs - lhs).max(0.0),
            ConstraintSense::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// A linear program in the form
///
/// ```text
/// minimize    cᵀ x
/// subject to  aᵢᵀ x  {≤, ≥, =}  bᵢ     for every constraint i
///             x ≥ 0
/// ```
///
/// All variables are non-negative, which is exactly the form of the obfuscation
/// LPs in the paper (probabilities are non-negative); general bounds can be
/// expressed with explicit constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Create a problem with `num_vars` non-negative variables and a zero objective.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows, every copy of a [`Constraint`] counted.
    pub fn num_constraints(&self) -> usize {
        self.constraints.iter().map(|c| c.copies).sum()
    }

    /// Number of constraint rows of each sense `(le, ge, eq)`.
    pub fn constraint_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for c in &self.constraints {
            match c.sense {
                ConstraintSense::Le => counts.0 += c.copies,
                ConstraintSense::Ge => counts.1 += c.copies,
                ConstraintSense::Eq => counts.2 += c.copies,
            }
        }
        counts
    }

    /// Total number of nonzero coefficients across all constraints — the
    /// figure that drives the per-iteration Newton *assembly* cost of the
    /// interior-point solvers (the factorization cost is driven by the block
    /// sizes instead).
    pub fn nonzeros(&self) -> usize {
        self.constraints
            .iter()
            .map(|c| c.coeffs.len() * c.copies)
            .sum()
    }

    /// Set the objective coefficient of one variable.
    pub fn set_objective(&mut self, var: usize, coeff: f64) -> Result<(), LpError> {
        if var >= self.num_vars {
            return Err(LpError::VariableOutOfRange {
                index: var,
                num_vars: self.num_vars,
            });
        }
        if !coeff.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        self.objective[var] = coeff;
        Ok(())
    }

    /// Set the full objective vector (must have exactly `num_vars` entries).
    pub fn set_objective_vector(&mut self, coeffs: Vec<f64>) -> Result<(), LpError> {
        if coeffs.len() != self.num_vars {
            return Err(LpError::VariableOutOfRange {
                index: coeffs.len(),
                num_vars: self.num_vars,
            });
        }
        if coeffs.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteCoefficient);
        }
        self.objective = coeffs;
        Ok(())
    }

    /// The objective vector `c`.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Add a sparse constraint (one row) and return its index among
    /// [`LpProblem::constraints`].
    ///
    /// Duplicate variable indices within one constraint are summed.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) -> Result<usize, LpError> {
        self.add_shifted_constraints(coeffs, 1, sense, rhs)
    }

    /// Add a constraint standing for `copies` rows, where copy `c` is
    /// `coeffs` with every variable index shifted by `c`, and return its
    /// index among [`LpProblem::constraints`].  The rows are numbered after
    /// the rows of the constraints added before it.
    ///
    /// Validated as [`LpProblem::add_constraint`] validates a row, with every
    /// index of the last copy in range; duplicate indices are summed.
    pub fn add_shifted_constraints(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        copies: usize,
        sense: ConstraintSense,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for (j, a) in coeffs {
            let last = j + copies.max(1) - 1;
            if last >= self.num_vars {
                return Err(LpError::VariableOutOfRange {
                    index: last,
                    num_vars: self.num_vars,
                });
            }
            if !a.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            if let Some(slot) = merged.iter_mut().find(|(jj, _)| *jj == j) {
                slot.1 += a;
            } else {
                merged.push((j, a));
            }
        }
        self.constraints.push(Constraint {
            coeffs: merged,
            copies,
            sense,
            rhs,
        });
        Ok(self.constraints.len() - 1)
    }

    /// All constraints, each stated once for all of its copies.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Every constraint row, in row order, as `(constraint, copy)`: the
    /// copies of each constraint in turn.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&Constraint, usize)> {
        self.constraints
            .iter()
            .flat_map(|c| (0..c.copies).map(move |copy| (c, copy)))
    }

    /// Objective value `cᵀx` at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Maximum constraint violation at `x` (also counts negativity of `x`).
    /// A non-finite entry of `x` or `aᵀx` is an infinite violation.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let negativity = x.iter().map(|&v| {
            if v.is_finite() {
                (-v).max(0.0)
            } else {
                f64::INFINITY
            }
        });
        self.rows()
            .map(|(c, copy)| c.violation(copy, x))
            .chain(negativity)
            .fold(0.0f64, f64::max)
    }

    /// Whether a point is feasible within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.num_vars && self.max_violation(x) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate() {
        let mut p = LpProblem::new(2);
        p.set_objective(0, 1.0).unwrap();
        p.set_objective(1, 2.0).unwrap();
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Ge, 1.0)
            .unwrap();
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 2);
        assert_eq!(p.constraint_counts(), (1, 1, 0));
        assert_eq!(p.nonzeros(), 3);
        let x = [2.0, 1.0];
        assert!((p.objective_value(&x) - 4.0).abs() < 1e-12);
        assert!(p.is_feasible(&x, 1e-9));
    }

    #[test]
    fn violations_reported() {
        let mut p = LpProblem::new(1);
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Eq, 0.5)
            .unwrap();
        let x = [2.0];
        assert!((p.max_violation(&x) - 1.5).abs() < 1e-12);
        assert!(!p.is_feasible(&x, 1e-6));
        assert!(!p.is_feasible(&[-0.1], 1e-6), "negativity is a violation");
    }

    #[test]
    fn out_of_range_variable_rejected() {
        let mut p = LpProblem::new(2);
        assert!(matches!(
            p.set_objective(5, 1.0),
            Err(LpError::VariableOutOfRange { index: 5, .. })
        ));
        assert!(matches!(
            p.add_constraint(vec![(3, 1.0)], ConstraintSense::Le, 1.0),
            Err(LpError::VariableOutOfRange { index: 3, .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut p = LpProblem::new(1);
        assert_eq!(
            p.set_objective(0, f64::NAN),
            Err(LpError::NonFiniteCoefficient)
        );
        assert_eq!(
            p.add_constraint(vec![(0, f64::INFINITY)], ConstraintSense::Le, 1.0),
            Err(LpError::NonFiniteCoefficient)
        );
        assert_eq!(
            p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, f64::NAN),
            Err(LpError::NonFiniteCoefficient)
        );
    }

    #[test]
    fn duplicate_indices_are_merged() {
        let mut p = LpProblem::new(2);
        p.add_constraint(
            vec![(0, 1.0), (0, 2.0), (1, -1.0)],
            ConstraintSense::Eq,
            3.0,
        )
        .unwrap();
        let c = &p.constraints()[0];
        assert_eq!(c.coeffs.len(), 2);
        let lhs: f64 = c.terms(0).map(|(j, a)| a * [1.0, 0.0][j]).sum();
        assert!((lhs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_constraints_are_stored_once_and_read_as_rows() {
        let mut p = LpProblem::new(6);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Eq, 1.0)
            .unwrap();
        let index = p
            .add_shifted_constraints(vec![(0, 1.0), (3, -2.0)], 3, ConstraintSense::Le, 0.5)
            .unwrap();
        assert_eq!(index, 1);
        assert_eq!(p.constraints().len(), 2);
        assert_eq!(p.num_constraints(), 4);
        assert_eq!(p.constraint_counts(), (3, 0, 1));
        assert_eq!(p.nonzeros(), 8);
        let terms: Vec<Vec<(usize, f64)>> =
            p.rows().map(|(c, copy)| c.terms(copy).collect()).collect();
        assert_eq!(
            terms,
            vec![
                vec![(0, 1.0), (1, 1.0)],
                vec![(0, 1.0), (3, -2.0)],
                vec![(1, 1.0), (4, -2.0)],
                vec![(2, 1.0), (5, -2.0)],
            ]
        );
        // Copy 2 reads x[2] and x[5]: 2 − 2·0 = 2 > 0.5.
        let x = [0.5, 0.5, 2.0, 1.0, 1.0, 0.0];
        assert!((p.max_violation(&x) - 1.5).abs() < 1e-12);
        // The last copy's indices must be in range.
        assert_eq!(
            p.add_shifted_constraints(vec![(4, 1.0)], 3, ConstraintSense::Le, 0.0),
            Err(LpError::VariableOutOfRange {
                index: 6,
                num_vars: 6
            })
        );
        assert_eq!(
            p.add_shifted_constraints(vec![(0, f64::NAN)], 2, ConstraintSense::Le, 0.0),
            Err(LpError::NonFiniteCoefficient)
        );
        assert_eq!(p.num_constraints(), 4, "refusals add nothing");
    }

    #[test]
    fn non_finite_points_are_infeasible() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0)], ConstraintSense::Le, 1.0)
            .unwrap();
        p.add_constraint(vec![(1, 1.0)], ConstraintSense::Ge, 0.0)
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for x in [[bad, 0.5], [0.5, bad]] {
                assert_eq!(p.max_violation(&x), f64::INFINITY, "{x:?}");
                assert!(!p.is_feasible(&x, 1e-6), "{x:?}");
            }
        }
        // A NaN variable no row reads is still a violation.
        let free = LpProblem::new(1);
        assert!(!free.is_feasible(&[f64::NAN], 1e-6));
    }

    #[test]
    fn objective_vector_length_checked() {
        let mut p = LpProblem::new(3);
        assert!(p.set_objective_vector(vec![1.0, 2.0]).is_err());
        assert!(p.set_objective_vector(vec![1.0, 2.0, 3.0]).is_ok());
        assert_eq!(p.objective(), &[1.0, 2.0, 3.0]);
    }
}
