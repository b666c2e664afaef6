//! Fig. 14 as an asserted integration test: when the user raises the precision
//! level, aggregating the already-delivered leaf matrix (Algorithm 2) must be
//! far cheaper than recalculating a robust matrix at the coarser level, while
//! preserving row-stochasticity and the ε-Geo-Ind guarantee (Proposition 4.6).

use corgi::core::{
    generate_robust_matrix, geoind, precision_reduction, LocationTree, ObfuscationProblem,
    RobustConfig,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::time::Instant;

#[test]
fn precision_reduction_is_much_faster_than_recalculation() {
    let tree = LocationTree::new(HexGrid::new(HexGridConfig::san_francisco()).unwrap());
    let subtree = tree.privacy_forest(2).unwrap()[0].clone();
    let k = subtree.leaf_count();
    assert_eq!(k, 49);
    let prior: Vec<f64> = (0..k).map(|i| 1.0 + (i % 7) as f64).collect();
    let targets: Vec<usize> = (0..k).step_by(3).collect();
    let epsilon = 15.0;
    let problem =
        ObfuscationProblem::new(&tree, &subtree, &prior, &targets, epsilon, true).unwrap();
    let config = RobustConfig {
        delta: 1,
        iterations: 3,
    };

    // The leaf-level robust matrix the user already received.
    let leaf_matrix = generate_robust_matrix(&problem, &config).unwrap().matrix;

    // Recalculation: what the server would redo if no reduction existed.
    let start = Instant::now();
    let recalculated = generate_robust_matrix(&problem, &config).unwrap().matrix;
    let recalc_time = start.elapsed();

    // Precision reduction of the delivered matrix to level 1 (Algorithm 2).
    let start = Instant::now();
    let reduced = precision_reduction(&leaf_matrix, &tree, 1, &prior).unwrap();
    let reduce_time = start.elapsed();

    // The paper's Fig. 14 ordering: reduction is orders of magnitude faster at
    // every size and every δ; a 5× margin keeps the assertion robust to noise.
    assert!(
        recalc_time > reduce_time * 5,
        "recalculation ({recalc_time:?}) must dwarf precision reduction ({reduce_time:?})"
    );

    // Both paths produce valid coarse-or-leaf matrices: the reduced matrix is
    // one row/column per level-1 node and keeps the guarantees it started with.
    assert_eq!(reduced.size(), 7);
    assert!(reduced.cells().iter().all(|c| c.level() == 1));
    reduced.check_stochastic(1e-9).unwrap();
    let distances = tree.distance_matrix(reduced.cells());
    let report = geoind::check_all_pairs(&reduced, &distances, epsilon, 1e-6);
    assert!(
        report.is_satisfied(),
        "Proposition 4.6: reduction preserves ε-Geo-Ind ({} / {} violated)",
        report.violated,
        report.total_constraints
    );
    // The recalculated leaf matrix stays at leaf granularity — the ordering
    // above is the whole reason Algorithm 2 exists.
    assert_eq!(recalculated.size(), k);
}
