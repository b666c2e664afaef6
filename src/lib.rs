//! CORGI: user-customizable and robust Geo-Indistinguishability (EDBT 2023).
//!
//! This umbrella crate re-exports the whole workspace under one roof:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`geo`] | `corgi-geo` | Validated coordinates, haversine distances, local projections |
//! | [`hexgrid`] | `corgi-hexgrid` | Aperture-7 hexagonal hierarchical spatial index (H3-like) |
//! | [`graph`] | `corgi-graph` | Mobility-graph approximation of the Geo-Ind constraint set (§4.2) |
//! | [`lp`] | `corgi-lp` | From-scratch LP solvers: the block-angular interior point behind every matrix; simplex and generic interior point as test oracles |
//! | [`core`] | `corgi-core` | Location tree, policies, LP formulation, robust matrices, precision reduction |
//! | [`datagen`] | `corgi-datagen` | Synthetic Gowalla-like check-ins, priors and location metadata |
//! | [`framework`] | `corgi-framework` | Serving stack (`MatrixService`: generator → cache → instrumentation), versioned wire protocol, on-device customization (§5) |
//!
//! # Minimal flow: grid → matrix → report
//!
//! Build a spatial index, solve the ε-Geo-Ind LP for an obfuscation matrix
//! over the user's privacy subtree, and verify the privacy guarantee:
//!
//! ```
//! use corgi::core::geoind::check_all_pairs;
//! use corgi::core::{LocationTree, ObfuscationProblem};
//! use corgi::geo::LatLng;
//! use corgi::hexgrid::{HexGrid, HexGridConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Grid + location tree over the area of interest (§3.1).
//! let grid = HexGrid::new(HexGridConfig::san_francisco())?;
//! let tree = LocationTree::new(grid);
//!
//! // 2. The 7-leaf subtree of the privacy forest (privacy level 1) that
//! //    contains the user's real location (§3.2).
//! let user = LatLng::new(37.7749, -122.4194)?;
//! let subtree = tree.subtree_containing_point(&user, 1)?;
//!
//! // 3. Solve the Geo-Ind LP for an obfuscation matrix over that subtree,
//! //    with a uniform prior and every cell as a target (§4.1–§4.2).
//! let k = subtree.leaf_count();
//! let prior = vec![1.0 / k as f64; k];
//! let targets: Vec<usize> = (0..k).collect();
//! let epsilon = 15.0; // 1/km
//! let problem = ObfuscationProblem::new(&tree, &subtree, &prior, &targets, epsilon, true)?;
//! let matrix = problem.solve(None)?;
//!
//! // 4. Report: the matrix is row-stochastic and satisfies ε-Geo-Ind on
//! //    every ordered pair of cells (Definition 2.1).
//! matrix.check_stochastic(1e-9)?;
//! let report = check_all_pairs(&matrix, problem.distances(), epsilon, 1e-7);
//! assert!(report.is_satisfied());
//! # Ok(())
//! # }
//! ```
//!
//! For the full pipeline — synthetic check-in data, customization policies,
//! robust matrices, pruning and precision reduction, and the client/server
//! split — see `examples/quickstart.rs`, `examples/policy_customization.rs`
//! and `examples/rideshare_pickup.rs`.

#![warn(missing_docs)]

pub use corgi_core as core;
pub use corgi_datagen as datagen;
pub use corgi_framework as framework;
pub use corgi_geo as geo;
pub use corgi_graph as graph;
pub use corgi_hexgrid as hexgrid;
pub use corgi_lp as lp;
