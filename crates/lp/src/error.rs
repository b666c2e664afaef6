//! Error types for the LP solvers.

use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A constraint or objective referenced a variable index ≥ the number of variables.
    VariableOutOfRange {
        /// Offending variable index.
        index: usize,
        /// Number of variables in the problem.
        num_vars: usize,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite.
    NonFiniteCoefficient,
    /// The problem has no variables or no constraints where the solver requires them.
    EmptyProblem,
    /// The block partition handed to the block-angular solver is invalid.
    InvalidBlockStructure(String),
    /// An inequality constraint spans more than one block (block-angular solver only).
    ConstraintSpansBlocks {
        /// Index of the offending constraint.
        constraint: usize,
    },
    /// A numerical factorization failed (matrix not positive definite / singular).
    NumericalFailure(String),
    /// A constraint index ≥ the number of constraints.
    ConstraintOutOfRange {
        /// Offending constraint index.
        index: usize,
        /// Number of constraints in the problem.
        num_constraints: usize,
    },
    /// A prepared-LP row update addressed an equality row (equality rows
    /// shape the static Schur coupling and cannot change in place).
    EqualityRowUpdate {
        /// Index of the equality constraint.
        constraint: usize,
    },
    /// A prepared-LP row update named different variables than the row has
    /// (only the coefficient values may change in place, not the pattern).
    RowPatternMismatch {
        /// Index of the constraint.
        constraint: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::VariableOutOfRange { index, num_vars } => {
                write!(
                    f,
                    "variable index {index} out of range (problem has {num_vars} variables)"
                )
            }
            LpError::NonFiniteCoefficient => write!(f, "coefficient is NaN or infinite"),
            LpError::EmptyProblem => write!(f, "problem has no variables"),
            LpError::InvalidBlockStructure(msg) => write!(f, "invalid block structure: {msg}"),
            LpError::ConstraintSpansBlocks { constraint } => {
                write!(
                    f,
                    "inequality constraint {constraint} spans multiple blocks"
                )
            }
            LpError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            LpError::ConstraintOutOfRange {
                index,
                num_constraints,
            } => write!(
                f,
                "constraint index {index} out of range (problem has {num_constraints} constraints)"
            ),
            LpError::EqualityRowUpdate { constraint } => {
                write!(
                    f,
                    "constraint {constraint} is an equality and cannot be updated in place"
                )
            }
            LpError::RowPatternMismatch { constraint } => write!(
                f,
                "update of constraint {constraint} changes its sparsity pattern"
            ),
        }
    }
}

impl std::error::Error for LpError {}
