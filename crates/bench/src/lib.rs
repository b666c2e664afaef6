//! Experiment harness shared by the per-figure binaries.
//!
//! Every figure of the paper's evaluation (Section 6) has a binary in
//! `src/bin/` that prints its series as an aligned text table and writes the raw
//! numbers as JSON under `target/experiments/`.  This module provides the
//! common setup: the experiment grid, the synthetic Gowalla-like dataset, priors
//! and targets, and small table/JSON helpers.
//!
//! # Experiment grid
//!
//! The paper builds a height-3 H3 tree (343 leaves) over San Francisco and
//! sweeps ε over 15–20 /km.  With H3's own cell sizes that makes `ε·d ≈ 5–8`
//! between adjacent cells, at which the Geo-Ind constraints barely bind and the
//! optimal quality loss is ≈ 0 — while the paper reports clearly non-trivial
//! quality losses (0.5–2 km).  To run in the regime the paper's numbers exhibit
//! we set the leaf spacing so that `ε·d ≈ 1.8` for adjacent cells (0.12 km),
//! i.e. a dense downtown grid; all qualitative shapes (who wins, monotonicity,
//! crossovers) are produced in this regime.  README's "Reproducing the
//! paper's figures" section notes this substitution; ROADMAP item 4 records a
//! leaf-spacing sweep of how far this regime sits from the paper's Fig. 11
//! and Fig. 12 numbers.

#![warn(missing_docs)]

use corgi_core::{LocationTree, ObfuscationProblem, Subtree};
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution};
use corgi_geo::LatLng;
use corgi_hexgrid::{CellId, HexGrid, HexGridConfig};
use std::fs;
use std::path::PathBuf;

pub mod loadgen;

/// Privacy budget values swept by the paper (1/km).
pub const PAPER_EPSILONS: [f64; 4] = [15.0, 16.0, 17.0, 18.0];

/// Default privacy budget (1/km) used where the paper fixes ε = 15 /km.
pub const DEFAULT_EPSILON: f64 = 15.0;

/// Number of target locations (the paper's `NR_TARGET = 49`).
pub const NR_TARGET: usize = 49;

/// Everything the experiment binaries need.
pub struct ExperimentContext {
    /// The location tree over the experiment grid.
    pub tree: LocationTree,
    /// Prior distribution computed from the synthetic Gowalla-like training split.
    pub prior: PriorDistribution,
    /// Location metadata (home/office/popular/outlier labels).
    pub metadata: LocationMetadata,
}

impl ExperimentContext {
    /// Build the standard experiment context (deterministic).
    pub fn standard() -> Self {
        let grid_config = HexGridConfig {
            center: LatLng::new(37.7749, -122.4194).expect("static coordinates are valid"),
            height: 3,
            leaf_spacing_km: 0.12,
        };
        let grid = HexGrid::new(grid_config).expect("experiment grid is valid");
        let data_config = GowallaLikeConfig {
            center_decay_km: 0.6,
            ..GowallaLikeConfig::default()
        };
        let (dataset, _anchors) = GowallaLikeGenerator::new(data_config).generate(&grid);
        let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        Self {
            tree: LocationTree::new(grid),
            prior,
            metadata,
        }
    }

    /// The grid underlying the tree.
    pub fn grid(&self) -> &HexGrid {
        self.tree.grid()
    }

    /// The first privacy-level-2 subtree (49 leaves) — the paper's default
    /// obfuscation range.
    pub fn level2_subtree(&self) -> Subtree {
        self.tree
            .privacy_forest(2)
            .expect("level 2 exists")
            .into_iter()
            .next()
            .expect("forest is non-empty")
    }

    /// Build the obfuscation problem of a subtree with the standard priors and
    /// `NR_TARGET` targets.
    pub fn problem_for_subtree(
        &self,
        subtree: &Subtree,
        epsilon: f64,
        graph_approximation: bool,
    ) -> ObfuscationProblem {
        let prior = self
            .prior
            .restricted_to(self.grid(), subtree.leaves())
            .unwrap_or_else(|| vec![1.0 / subtree.leaf_count() as f64; subtree.leaf_count()]);
        let targets = spread_targets(subtree.leaf_count(), NR_TARGET);
        ObfuscationProblem::new(
            &self.tree,
            subtree,
            &prior,
            &targets,
            epsilon,
            graph_approximation,
        )
        .expect("experiment problem is well formed")
    }

    /// Build a problem over the `n` leaf cells closest to the level-2 subtree
    /// center (used by the sweeps over 28–70 locations).
    pub fn problem_for_n_locations(
        &self,
        n: usize,
        epsilon: f64,
        graph_approximation: bool,
    ) -> ObfuscationProblem {
        let cells = self.closest_leaves(n);
        let prior = self
            .prior
            .restricted_to(self.grid(), &cells)
            .unwrap_or_else(|| vec![1.0 / n as f64; n]);
        let targets = spread_targets(n, NR_TARGET);
        ObfuscationProblem::from_leaves(
            &self.tree,
            &cells,
            &prior,
            &targets,
            epsilon,
            graph_approximation,
        )
        .expect("experiment problem is well formed")
    }

    /// The `n` leaf cells closest to the region center.
    pub fn closest_leaves(&self, n: usize) -> Vec<CellId> {
        let root = self.grid().root();
        let mut leaves: Vec<CellId> = self.grid().leaves().to_vec();
        leaves.sort_by(|a, b| {
            let da = self.grid().cell_distance_km(a, &root);
            let db = self.grid().cell_distance_km(b, &root);
            da.partial_cmp(&db).expect("distances are finite")
        });
        leaves.truncate(n);
        leaves
    }
}

/// Evenly spread `count` target indices over `n` locations.
pub fn spread_targets(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n).max(1);
    (0..count).map(|i| i * n / count).collect()
}

/// Print an aligned table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write an experiment result as JSON under `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(body) = serde_json::to_string_pretty(value) {
            let _ = fs::write(path, body);
        }
    }
}

/// Whether the binary was invoked with `--full` (run the paper-scale version).
pub fn full_scale_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_context_builds() {
        let ctx = ExperimentContext::standard();
        assert_eq!(ctx.grid().leaf_count(), 343);
        assert_eq!(ctx.level2_subtree().leaf_count(), 49);
        assert_eq!(ctx.closest_leaves(70).len(), 70);
    }

    #[test]
    fn spread_targets_covers_range() {
        let t = spread_targets(49, 49);
        assert_eq!(t.len(), 49);
        assert_eq!(t[0], 0);
        let t = spread_targets(10, 49);
        assert_eq!(t.len(), 10);
        let t = spread_targets(100, 4);
        assert_eq!(t, vec![0, 25, 50, 75]);
    }

    #[test]
    fn problems_build_for_various_sizes() {
        let ctx = ExperimentContext::standard();
        for n in [7usize, 28, 49] {
            let p = ctx.problem_for_n_locations(n, DEFAULT_EPSILON, true);
            assert_eq!(p.size(), n);
        }
        let p = ctx.problem_for_subtree(&ctx.level2_subtree(), DEFAULT_EPSILON, false);
        assert_eq!(p.size(), 49);
        assert!(!p.uses_graph_approximation());
    }
}
