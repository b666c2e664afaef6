//! CORGI core: user customizable and robust Geo-Indistinguishability.
//!
//! This crate implements the algorithms of the paper *"User Customizable and
//! Robust Geo-Indistinguishability for Location Privacy"* (EDBT 2023):
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.1 Location tree | [`tree`] |
//! | §3.2 Customization policies | [`policy`] |
//! | §2.1 / §4.1 Obfuscation matrix, ε-Geo-Ind | [`matrix`], [`geoind`] |
//! | §4.1 / §4.2 LP formulation + graph approximation | [`formulation`] |
//! | §4.3 Matrix pruning | [`prune`] |
//! | §4.4 Robust matrix generation (Algorithm 1) | [`robust`] |
//! | §4.5 Matrix precision reduction (Algorithm 2) | [`precision`] |
//! | §2.1 Utility / quality loss (Eq. 3, 6, 7) | [`utility`] |
//! | Planar-Laplace baseline (Andrés et al., CCS 2013) | [`laplace`] |
//! | Bayesian adversary metrics (extension) | [`adversary`] |
//!
//! The crate is deliberately independent of any dataset: priors and location
//! attributes are plain inputs, produced in this workspace by `corgi-datagen`
//! and consumed through the [`policy::AttributeProvider`] trait.

#![warn(missing_docs)]

pub mod adversary;
mod error;
pub mod formulation;
pub mod geoind;
pub mod laplace;
pub mod matrix;
pub mod policy;
pub mod precision;
pub mod prune;
pub mod robust;
pub mod tree;
pub mod utility;

pub use corgi_lp::WarmStart;
pub use error::CorgiError;
pub use formulation::ObfuscationProblem;
pub use geoind::GeoIndReport;
pub use matrix::ObfuscationMatrix;
pub use policy::{AttributeProvider, AttributeValue, ComparisonOp, Policy, Predicate};
pub use precision::precision_reduction;
pub use prune::prune_matrix;
pub use robust::{
    generate_nonrobust_matrix, generate_robust_matrix, generate_robust_matrix_warm, RobustConfig,
    RobustRun,
};
pub use tree::{LocationTree, Subtree};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CorgiError>;
