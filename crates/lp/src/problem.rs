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

/// A single sparse linear constraint `aᵀx {≤,≥,=} b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse coefficients as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Constraint sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Evaluate `aᵀx` for a given point.
    pub fn lhs_value(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, a)| a * x[j]).sum()
    }

    /// Signed violation of the constraint at `x` (0 when satisfied).
    ///
    /// For `≤` constraints this is `max(0, aᵀx − b)`, for `≥` it is
    /// `max(0, b − aᵀx)`, for `=` it is `|aᵀx − b|`.
    pub fn violation(&self, x: &[f64]) -> f64 {
        let lhs = self.lhs_value(x);
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
    constraints: Vec<Constraint>,
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

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of constraints of each sense `(le, ge, eq)`.
    pub fn constraint_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for c in &self.constraints {
            match c.sense {
                ConstraintSense::Le => counts.0 += 1,
                ConstraintSense::Ge => counts.1 += 1,
                ConstraintSense::Eq => counts.2 += 1,
            }
        }
        counts
    }

    /// Total number of nonzero coefficients across all constraints — the
    /// figure that drives the per-iteration Newton *assembly* cost of the
    /// interior-point solvers (the factorization cost is driven by the block
    /// sizes instead).
    pub fn nonzeros(&self) -> usize {
        self.constraints.iter().map(|c| c.coeffs.len()).sum()
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

    /// Add a sparse constraint and return its index.
    ///
    /// Duplicate variable indices within one constraint are summed.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
        for (j, a) in coeffs {
            if j >= self.num_vars {
                return Err(LpError::VariableOutOfRange {
                    index: j,
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
            sense,
            rhs,
        });
        Ok(self.constraints.len() - 1)
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Overwrite the coefficient values of constraint `index` with those of
    /// `coeffs`, which the caller has checked against the row's pattern.
    pub(crate) fn overwrite_coefficients(&mut self, index: usize, coeffs: &[(usize, f64)]) {
        for (slot, &(_, a)) in self.constraints[index].coeffs.iter_mut().zip(coeffs) {
            slot.1 = a;
        }
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
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let constraint_violation = self
            .constraints
            .iter()
            .map(|c| c.violation(x))
            .fold(0.0f64, f64::max);
        let negativity = x.iter().map(|v| (-v).max(0.0)).fold(0.0f64, f64::max);
        constraint_violation.max(negativity)
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
        assert!((c.lhs_value(&[1.0, 0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn objective_vector_length_checked() {
        let mut p = LpProblem::new(3);
        assert!(p.set_objective_vector(vec![1.0, 2.0]).is_err());
        assert!(p.set_objective_vector(vec![1.0, 2.0, 3.0]).is_ok());
        assert_eq!(p.objective(), &[1.0, 2.0, 3.0]);
    }
}
