//! Policy customization and robustness: what happens when users prune locations.
//!
//! Reproduces the paper's core robustness story on a small scale: two users with
//! different customization policies prune different numbers of cells from the
//! same obfuscation range; the δ-prunable CORGI matrix keeps (almost) all of its
//! ε-Geo-Ind guarantees after pruning while the non-robust matrix does not.
//!
//! The robust matrices come through the serving stack (`Arc<dyn MatrixService>`):
//! the server generates the whole privacy forest without learning which subtree
//! the users are in, and the example picks their subtree's entry client-side.
//!
//! Run with: `cargo run --release --example policy_customization`

use corgi::core::{generate_nonrobust_matrix, geoind, prune_matrix, LocationTree};
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::MatrixRequest;
use corgi::framework::{
    warm, CachingService, ForestGenerator, MatrixService, ServerConfig, WarmRequest,
};
use corgi::geo::LatLng;
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dense downtown grid (finer cells than the default SF grid) so the
    // Geo-Ind constraints bind visibly at the paper's epsilon of 15/km.
    let grid = HexGrid::new(HexGridConfig {
        center: LatLng::new(37.7749, -122.4194)?,
        height: 3,
        leaf_spacing_km: 0.12,
    })?;
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig {
        center_decay_km: 0.6,
        ..GowallaLikeConfig::default()
    })
    .generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let tree = LocationTree::new(grid.clone());

    // The obfuscation range: one privacy-level-2 subtree (49 cells).
    let subtree = tree.privacy_forest(2)?[0].clone();
    let epsilon = 15.0;
    let delta = 4;

    // Server-side compute path; the same LP instance backs both matrices.
    let config = ServerConfig {
        epsilon,
        robust_iterations: 6,
        targets_per_subtree: 25,
        ..ServerConfig::default()
    };
    let generator = ForestGenerator::new(tree, prior, config);
    let problem = generator.problem_for_subtree(&subtree)?;
    let nonrobust = generate_nonrobust_matrix(&problem)?;

    // The robust matrix arrives through the serving trait: warm the level-2
    // key up front (as a production deployment would at startup), then the
    // request below is answered from the cache.
    let service = Arc::new(CachingService::with_defaults(generator));
    let report = warm(
        service.as_ref(),
        &WarmRequest {
            privacy_levels: vec![2],
            deltas: vec![delta],
        },
    );
    println!(
        "Warmed {} privacy-forest key(s) in {} ms",
        report.warmed, report.elapsed_ms
    );
    let response = service.privacy_forest(MatrixRequest {
        privacy_level: 2,
        delta,
    })?;
    assert_eq!(
        service.cache_stats().expect("caching layer").hits,
        1,
        "served from the warmed cache"
    );
    let robust = &response
        .entries
        .iter()
        .find(|e| e.subtree_root == subtree.root())
        .expect("the forest covers every level-2 subtree")
        .matrix;
    println!(
        "Quality loss: non-robust {:.4} km, delta-prunable CORGI (delta = {delta}) {:.4} km",
        problem.quality_loss(&nonrobust),
        problem.quality_loss(robust),
    );

    // Two users with different customization appetites.
    let counts_per_leaf = dataset.counts_per_leaf(&grid);
    for (user, prune_count) in [("cautious user", 2usize), ("aggressive user", 6)] {
        // Prune the most popular cells from the range (a realistic preference:
        // "do not map me onto crowded venues").
        let mut by_count: Vec<_> = subtree
            .leaves()
            .iter()
            .map(|c| (counts_per_leaf[grid.leaf_index(c).unwrap()], *c))
            .collect();
        by_count.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        let prune: Vec<_> = by_count.iter().take(prune_count).map(|(_, c)| *c).collect();

        println!("\n{user}: pruning {prune_count} popular cells from the obfuscation range");
        for (name, matrix) in [("non-robust", &nonrobust), ("CORGI", robust)] {
            let pruned = prune_matrix(matrix, &prune)?;
            let survivors: Vec<usize> = problem
                .cells()
                .iter()
                .enumerate()
                .filter(|(_, c)| !prune.contains(c))
                .map(|(i, _)| i)
                .collect();
            let distances: Vec<Vec<f64>> = survivors
                .iter()
                .map(|&i| {
                    survivors
                        .iter()
                        .map(|&j| problem.distances()[i][j])
                        .collect()
                })
                .collect();
            let report = geoind::check_all_pairs(&pruned, &distances, epsilon, 1e-7);
            println!(
                "  {name:<11}: {:>6.2}% of Geo-Ind constraints violated after pruning",
                report.violation_percentage()
            );
        }
    }
    println!("\nThe delta-prunable matrix keeps its guarantees while pruning stays within delta; the non-robust matrix does not (paper Fig. 12).");
    Ok(())
}
