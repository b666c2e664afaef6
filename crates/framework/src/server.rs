//! Server configuration.
//!
//! The serving stack itself lives in [`crate::service`]: wrap
//! [`ForestGenerator`](crate::ForestGenerator) in
//! [`CachingService`](crate::CachingService) behind an
//! `Arc<dyn MatrixService>`.  The stack's one
//! [`ForestCache`](crate::ForestCache) is what the server reaches through
//! [`MatrixService::cache`](crate::MatrixService::cache).

use serde::{Deserialize, Serialize};

/// Server-side configuration (set once for all users, footnote 6 of the paper).
///
/// Construct with a struct literal over the paper's defaults, which keeps
/// call sites stable as fields are added:
///
/// ```
/// use corgi_framework::ServerConfig;
///
/// let config = ServerConfig {
///     epsilon: 15.0,
///     robust_iterations: 4,
///     targets_per_subtree: 20,
///     ..ServerConfig::default()
/// };
/// assert_eq!(config.epsilon, 15.0);
/// assert!(config.graph_approximation);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Privacy budget ε in 1/km (the paper sweeps 15–20).
    pub epsilon: f64,
    /// Number of Algorithm-1 iterations `t` (the paper uses 10, converging in ~4).
    pub robust_iterations: usize,
    /// Number of target locations (places of interest) per subtree used in the
    /// quality-loss objective (the paper's `NR_TARGET`, 49 in the experiments).
    pub targets_per_subtree: usize,
    /// Whether to use the graph approximation of Section 4.2 (on by default).
    pub graph_approximation: bool,
    /// Seed for the random selection of target locations (combined with the
    /// subtree root so every subtree draws its own target set).
    pub target_seed: u64,
    /// Worker threads solving subtree LPs in parallel; 0 sizes the pool to the
    /// available cores.
    pub worker_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            epsilon: 15.0,
            robust_iterations: 10,
            targets_per_subtree: 49,
            graph_approximation: true,
            target_seed: 7,
            worker_threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MatrixRequest;
    use crate::{CachingService, ForestGenerator, MatrixService};
    use corgi_core::LocationTree;
    use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
    use corgi_hexgrid::{HexGrid, HexGridConfig};
    use std::sync::Arc;

    /// The serving stack a configuration is built for: a cache over the
    /// forest generator.
    fn server() -> CachingService<ForestGenerator> {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        let tree = LocationTree::new(grid);
        CachingService::with_defaults(ForestGenerator::new(
            tree,
            prior,
            ServerConfig {
                robust_iterations: 2,
                targets_per_subtree: 5,
                ..ServerConfig::default()
            },
        ))
    }

    #[test]
    fn privacy_forest_covers_every_subtree() {
        let srv = server();
        let response = srv
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta: 1,
            })
            .unwrap();
        // Level 1 of the height-3 tree has 49 subtrees of 7 leaves each.
        assert_eq!(response.entries.len(), 49);
        for entry in &response.entries {
            assert_eq!(entry.subtree_root.level(), 1);
            assert_eq!(entry.matrix.size(), 7);
            entry.matrix.check_stochastic(1e-6).unwrap();
        }
        // Every leaf of the tree is covered by exactly one entry.
        for leaf in srv.tree().leaves() {
            let owners = response
                .entries
                .iter()
                .filter(|e| e.subtree_root.is_ancestor_of(leaf))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn responses_are_cached_per_request_key() {
        let srv = server();
        let req = MatrixRequest {
            privacy_level: 1,
            delta: 0,
        };
        let a = srv.privacy_forest(req).unwrap();
        let b = srv.privacy_forest(req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(srv.cache_stats().unwrap().entries, 1);
        let _ = srv
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta: 2,
            })
            .unwrap();
        assert_eq!(srv.cache_stats().unwrap().entries, 2);
    }

    #[test]
    fn invalid_privacy_level_is_rejected() {
        let srv = server();
        assert!(srv
            .privacy_forest(MatrixRequest {
                privacy_level: 9,
                delta: 1,
            })
            .is_err());
    }
}
