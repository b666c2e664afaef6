//! A concrete hexagonal grid over a geographic area of interest.

use crate::{Axial, CellId, Layout};
use corgi_geo::{haversine_km, LatLng, LocalProjection};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Errors produced when building or querying a [`HexGrid`].
#[derive(Debug, Clone, PartialEq)]
pub enum HexGridError {
    /// The requested tree height is not supported (0 ≤ height ≤ 7 keeps the grid
    /// below 7⁷ ≈ 800 k leaves, far beyond anything the paper evaluates).
    UnsupportedHeight(u8),
    /// The leaf spacing was not strictly positive and finite.
    InvalidSpacing(f64),
    /// A queried point falls outside the grid's leaves.
    PointOutsideGrid(LatLng),
    /// A cell id does not belong to this grid.
    UnknownCell(CellId),
}

impl fmt::Display for HexGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexGridError::UnsupportedHeight(h) => {
                write!(f, "unsupported hierarchy height {h} (must be 1..=7)")
            }
            HexGridError::InvalidSpacing(s) => write!(f, "invalid leaf spacing {s} km"),
            HexGridError::PointOutsideGrid(p) => write!(f, "point {p} is outside the grid"),
            HexGridError::UnknownCell(c) => write!(f, "cell {c} does not belong to this grid"),
        }
    }
}

impl std::error::Error for HexGridError {}

/// Configuration of a [`HexGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HexGridConfig {
    /// Geographic center of the area of interest (becomes the root cell center).
    pub center: LatLng,
    /// Height of the aperture-7 hierarchy (number of levels above the leaves).
    /// The paper's San-Francisco grid uses height 3 → 343 leaf cells.
    pub height: u8,
    /// Distance between the centers of two adjacent leaf cells, in kilometres
    /// (the paper's `a`).
    pub leaf_spacing_km: f64,
}

impl HexGridConfig {
    /// Configuration matching the paper's experimental setup: a height-3 grid
    /// (343 leaves) over San Francisco with ~0.55 km leaf spacing, which covers
    /// roughly the city extent used in the Gowalla sample.
    pub fn san_francisco() -> Self {
        Self {
            center: LatLng::new(37.7749, -122.4194).expect("static coordinates are valid"),
            height: 3,
            leaf_spacing_km: 0.55,
        }
    }
}

/// A hexagonal hierarchical grid bound to a geographic area of interest.
///
/// This is the object the CORGI *server* builds in step ① of the framework
/// (Fig. 1): a spatial index over the area of interest which is then shared with
/// users so both sides agree on cell identities.
#[derive(Debug, Clone)]
pub struct HexGrid {
    config: HexGridConfig,
    projection: LocalProjection,
    layout: Layout,
    /// Leaves in digit order; index = stable leaf index used by obfuscation matrices.
    leaves: Vec<CellId>,
    leaf_index: HashMap<CellId, usize>,
}

impl HexGrid {
    /// Build the grid for the given configuration.
    pub fn new(config: HexGridConfig) -> Result<Self, HexGridError> {
        if config.height == 0 || config.height > 7 {
            return Err(HexGridError::UnsupportedHeight(config.height));
        }
        if !config.leaf_spacing_km.is_finite() || config.leaf_spacing_km <= 0.0 {
            return Err(HexGridError::InvalidSpacing(config.leaf_spacing_km));
        }
        let projection = LocalProjection::new(config.center);
        let layout = Layout::new(config.leaf_spacing_km);
        let leaves = CellId::root(config.height).descendant_leaves();
        let leaf_index = leaves
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i))
            .collect::<HashMap<_, _>>();
        Ok(Self {
            config,
            projection,
            layout,
            leaves,
            leaf_index,
        })
    }

    /// The grid configuration.
    pub fn config(&self) -> &HexGridConfig {
        &self.config
    }

    /// Height of the hierarchy (root level).
    pub fn height(&self) -> u8 {
        self.config.height
    }

    /// The root cell covering the whole area of interest.
    pub fn root(&self) -> CellId {
        CellId::root(self.config.height)
    }

    /// The leaf cells in stable (digit) order.
    pub fn leaves(&self) -> &[CellId] {
        &self.leaves
    }

    /// Number of leaf cells (`7^height`).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// All cells at a given level, in digit order.
    pub fn cells_at_level(&self, level: u8) -> Vec<CellId> {
        assert!(level <= self.config.height, "level exceeds grid height");
        let mut out = Vec::new();
        collect_at_level(self.root(), level, &mut out);
        out
    }

    /// The stable index of a leaf cell within [`HexGrid::leaves`].
    pub fn leaf_index(&self, cell: &CellId) -> Result<usize, HexGridError> {
        self.leaf_index
            .get(cell)
            .copied()
            .ok_or(HexGridError::UnknownCell(*cell))
    }

    /// Whether a cell (at any level) belongs to this grid.
    pub fn contains_cell(&self, cell: &CellId) -> bool {
        if cell.level() > self.config.height {
            return false;
        }
        if cell.level() == 0 {
            return self.leaf_index.contains_key(cell);
        }
        // A non-leaf cell belongs to the grid iff its digit-0 (center) leaf does.
        let mut probe = *cell;
        while !probe.is_leaf() {
            probe = probe.children()[0];
        }
        self.leaf_index.contains_key(&probe)
    }

    /// Geographic center of a cell.
    pub fn cell_center(&self, cell: &CellId) -> LatLng {
        self.projection
            .unproject(&self.layout.to_planar(cell.center()))
    }

    /// Great-circle distance between two cell centers, in kilometres.
    pub fn cell_distance_km(&self, a: &CellId, b: &CellId) -> f64 {
        haversine_km(&self.cell_center(a), &self.cell_center(b))
    }

    /// Planar Euclidean distance between two cell centers, in kilometres.
    ///
    /// At city scale this agrees with [`HexGrid::cell_distance_km`] to a fraction
    /// of a percent; the planar form is exact for graph-approximation proofs.
    pub fn cell_planar_distance_km(&self, a: &CellId, b: &CellId) -> f64 {
        self.layout.center_distance_km(a.center(), b.center())
    }

    /// Spacing between adjacent leaf centers (the paper's `a`), km.
    pub fn leaf_spacing_km(&self) -> f64 {
        self.config.leaf_spacing_km
    }

    /// Spacing between adjacent cell centers at the given level, km (grows by √7
    /// per level).
    pub fn level_spacing_km(&self, level: u8) -> f64 {
        self.config.leaf_spacing_km * 7f64.sqrt().powi(i32::from(level))
    }

    /// The leaf cell containing a geographic point.
    pub fn leaf_containing(&self, point: &LatLng) -> Result<CellId, HexGridError> {
        let planar = self.projection.project(point);
        let axial = self.layout.from_planar(planar);
        let cell = CellId::new(0, axial);
        if self.leaf_index.contains_key(&cell) {
            Ok(cell)
        } else {
            Err(HexGridError::PointOutsideGrid(*point))
        }
    }

    /// Leaf cells that are immediate (distance `a`) neighbors of `cell` *within* the grid.
    pub fn leaf_neighbors(&self, cell: &CellId) -> Vec<CellId> {
        cell.center()
            .neighbors()
            .iter()
            .map(|c| CellId::new(0, *c))
            .filter(|c| self.leaf_index.contains_key(c))
            .collect()
    }

    /// Leaf cells that are diagonal (distance `√3·a`) neighbors of `cell` within the grid.
    pub fn leaf_diagonal_neighbors(&self, cell: &CellId) -> Vec<CellId> {
        cell.center()
            .diagonal_neighbors()
            .iter()
            .map(|c| CellId::new(0, *c))
            .filter(|c| self.leaf_index.contains_key(c))
            .collect()
    }

    /// The underlying leaf-lattice layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The local projection binding the planar lattice to geographic coordinates.
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Approximate radius (km) of the area covered by the whole grid: the maximum
    /// distance from the root center to a leaf center plus one circumradius.
    pub fn coverage_radius_km(&self) -> f64 {
        let root_axial = Axial::origin();
        let max_center = self
            .leaves
            .iter()
            .map(|l| self.layout.center_distance_km(root_axial, l.center()))
            .fold(0.0f64, f64::max);
        max_center + self.layout.circumradius_km()
    }
}

fn collect_at_level(cell: CellId, level: u8, out: &mut Vec<CellId>) {
    if cell.level() == level {
        out.push(cell);
        return;
    }
    for child in cell.children() {
        collect_at_level(child, level, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sf_grid() -> HexGrid {
        HexGrid::new(HexGridConfig::san_francisco()).unwrap()
    }

    #[test]
    fn san_francisco_grid_has_343_leaves() {
        let grid = sf_grid();
        assert_eq!(grid.leaf_count(), 343);
        assert_eq!(grid.cells_at_level(2).len(), 7);
        assert_eq!(grid.cells_at_level(1).len(), 49);
        assert_eq!(grid.cells_at_level(3).len(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = HexGridConfig::san_francisco();
        cfg.height = 0;
        assert!(matches!(
            HexGrid::new(cfg),
            Err(HexGridError::UnsupportedHeight(0))
        ));
        let mut cfg = HexGridConfig::san_francisco();
        cfg.leaf_spacing_km = -1.0;
        assert!(matches!(
            HexGrid::new(cfg),
            Err(HexGridError::InvalidSpacing(_))
        ));
    }

    #[test]
    fn root_center_is_region_center() {
        let grid = sf_grid();
        let root_center = grid.cell_center(&grid.root());
        let d = haversine_km(&root_center, &grid.config().center);
        assert!(d < 1e-9);
    }

    #[test]
    fn leaf_lookup_roundtrip() {
        let grid = sf_grid();
        for leaf in grid.leaves().iter().step_by(13) {
            let center = grid.cell_center(leaf);
            let found = grid.leaf_containing(&center).unwrap();
            assert_eq!(found, *leaf);
        }
    }

    #[test]
    fn leaf_index_is_stable_and_complete() {
        let grid = sf_grid();
        for (i, leaf) in grid.leaves().iter().enumerate() {
            assert_eq!(grid.leaf_index(leaf).unwrap(), i);
        }
    }

    #[test]
    fn point_far_outside_rejected() {
        let grid = sf_grid();
        let tokyo = LatLng::new(35.6762, 139.6503).unwrap();
        assert!(matches!(
            grid.leaf_containing(&tokyo),
            Err(HexGridError::PointOutsideGrid(_))
        ));
    }

    #[test]
    fn adjacent_leaf_centers_at_leaf_spacing() {
        let grid = sf_grid();
        let leaf = grid.leaves()[100];
        for n in grid.leaf_neighbors(&leaf) {
            let d = grid.cell_distance_km(&leaf, &n);
            let rel = (d - grid.leaf_spacing_km()).abs() / grid.leaf_spacing_km();
            assert!(rel < 1e-2, "neighbor distance {d} vs spacing");
        }
    }

    #[test]
    fn diagonal_leaf_centers_at_sqrt3_spacing() {
        let grid = sf_grid();
        let leaf = grid.leaves()[171];
        let expected = grid.leaf_spacing_km() * 3f64.sqrt();
        for n in grid.leaf_diagonal_neighbors(&leaf) {
            let d = grid.cell_distance_km(&leaf, &n);
            assert!((d - expected).abs() / expected < 1e-2);
        }
    }

    #[test]
    fn level_spacing_grows_by_sqrt7() {
        let grid = sf_grid();
        let ratio = grid.level_spacing_km(1) / grid.level_spacing_km(0);
        assert!((ratio - 7f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn contains_cell_for_all_levels() {
        let grid = sf_grid();
        assert!(grid.contains_cell(&grid.root()));
        for cell in grid.cells_at_level(2) {
            assert!(grid.contains_cell(&cell));
        }
        // A cell from a taller hierarchy is rejected.
        assert!(!grid.contains_cell(&CellId::root(5)));
        // A leaf far away from the flake is rejected.
        assert!(!grid.contains_cell(&CellId::new(0, Axial::new(1000, 1000))));
    }

    #[test]
    fn coverage_radius_is_city_scale() {
        let grid = sf_grid();
        let r = grid.coverage_radius_km();
        // 343 cells of ~0.55 km spacing cover roughly a 6–12 km radius flake.
        assert!(r > 4.0 && r < 20.0, "coverage radius {r}");
    }

    #[test]
    fn subtree_leaves_are_grid_leaves() {
        let grid = sf_grid();
        for subtree_root in grid.cells_at_level(2) {
            for leaf in subtree_root.descendant_leaves() {
                assert!(grid.leaf_index(&leaf).is_ok());
                assert!(subtree_root.is_ancestor_of(&leaf));
            }
        }
    }

    proptest! {
        /// Any point sampled inside a leaf hexagon maps back to that leaf (sampled
        /// well inside the inradius to avoid boundary ties).
        #[test]
        fn prop_point_in_leaf_maps_back(leaf_idx in 0usize..343, dx in -0.2f64..0.2, dy in -0.2f64..0.2) {
            let grid = sf_grid();
            let leaf = grid.leaves()[leaf_idx];
            let planar = grid.layout().to_planar(leaf.center())
                + corgi_geo::Vec2::new(dx * grid.leaf_spacing_km(), dy * grid.leaf_spacing_km());
            let point = grid.projection().unproject(&planar);
            prop_assert_eq!(grid.leaf_containing(&point).unwrap(), leaf);
        }
    }
}
