//! Location metadata: the labels (home, office, popular, outlier) that user
//! customization policies refer to.
//!
//! The paper (Section 6.1) derives these labels from the Gowalla sample with
//! "simple heuristics": the user's home and office are their most-visited cells
//! during night and working hours respectively, outliers are cells a user visited
//! rarely and at odd times, and popular locations are those with many check-ins
//! overall.  [`LocationMetadata::from_dataset`] reproduces those heuristics.

use crate::CheckInDataset;
use corgi_hexgrid::{CellId, HexGrid};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Ground-truth anchors produced by the synthetic generator (useful for
/// validating the labelling heuristics against a known truth).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserAnchors {
    homes: HashMap<u32, CellId>,
    offices: HashMap<u32, CellId>,
}

impl UserAnchors {
    /// Create anchors from explicit maps.
    pub fn new(homes: HashMap<u32, CellId>, offices: HashMap<u32, CellId>) -> Self {
        Self { homes, offices }
    }

    /// True home cell of a user.
    pub fn home_of(&self, user: u32) -> Option<CellId> {
        self.homes.get(&user).copied()
    }

    /// True office cell of a user.
    pub fn office_of(&self, user: u32) -> Option<CellId> {
        self.offices.get(&user).copied()
    }
}

/// Per-cell and per-user metadata inferred from a check-in dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationMetadata {
    /// Check-in count per leaf (aligned with `grid.leaves()`).
    counts: Vec<usize>,
    /// Minimum count for a cell to be labelled "popular".
    popular_threshold: usize,
    /// Inferred home cell per user.
    homes: HashMap<u32, CellId>,
    /// Inferred office cell per user.
    offices: HashMap<u32, CellId>,
    /// Inferred outlier cells per user.
    outliers: HashMap<u32, HashSet<CellId>>,
}

/// Hours treated as "night" (home time) by the heuristics.
const NIGHT_HOURS: [u8; 8] = [21, 22, 23, 0, 1, 2, 6, 7];
/// Hours treated as "working hours" (office time).
const WORK_HOURS: std::ops::Range<u8> = 9..18;
/// Hours treated as "odd" for the outlier heuristic.
const ODD_HOURS: std::ops::Range<u8> = 1..5;
/// A user must have visited a cell at most this many times for it to be an outlier.
const OUTLIER_MAX_VISITS: usize = 2;

impl LocationMetadata {
    /// Infer metadata from a dataset.
    ///
    /// `popular_quantile` (e.g. `0.9`) sets the check-in-count quantile above
    /// which a cell is labelled popular.
    pub fn from_dataset(grid: &HexGrid, dataset: &CheckInDataset, popular_quantile: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&popular_quantile),
            "popular quantile must be in [0, 1)"
        );
        let counts = dataset.counts_per_leaf(grid);

        // Popularity threshold from the quantile of non-zero counts.
        let mut nonzero: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
        nonzero.sort_unstable();
        let popular_threshold = if nonzero.is_empty() {
            usize::MAX
        } else {
            let idx = ((nonzero.len() as f64) * popular_quantile).floor() as usize;
            nonzero[idx.min(nonzero.len() - 1)].max(1)
        };

        // Per-user, per-cell visit histograms split by hour class.
        let mut night: HashMap<u32, HashMap<CellId, usize>> = HashMap::new();
        let mut work: HashMap<u32, HashMap<CellId, usize>> = HashMap::new();
        let mut odd: HashMap<u32, HashMap<CellId, usize>> = HashMap::new();
        let mut any: HashMap<u32, HashMap<CellId, usize>> = HashMap::new();
        for (checkin, leaf) in dataset.leaves(grid) {
            let hour = checkin.hour_of_day();
            let user = checkin.user_id;
            *any.entry(user).or_default().entry(leaf).or_insert(0) += 1;
            if NIGHT_HOURS.contains(&hour) {
                *night.entry(user).or_default().entry(leaf).or_insert(0) += 1;
            }
            if WORK_HOURS.contains(&hour) {
                *work.entry(user).or_default().entry(leaf).or_insert(0) += 1;
            }
            if ODD_HOURS.contains(&hour) {
                *odd.entry(user).or_default().entry(leaf).or_insert(0) += 1;
            }
        }

        let argmax = |m: &HashMap<CellId, usize>| -> Option<CellId> {
            m.iter()
                .max_by_key(|(cell, count)| (**count, cell.pack()))
                .map(|(cell, _)| *cell)
        };

        let homes: HashMap<u32, CellId> = night
            .iter()
            .filter_map(|(u, m)| argmax(m).map(|c| (*u, c)))
            .collect();
        let offices: HashMap<u32, CellId> = work
            .iter()
            .filter_map(|(u, m)| argmax(m).map(|c| (*u, c)))
            .collect();
        let mut outliers: HashMap<u32, HashSet<CellId>> = HashMap::new();
        for (user, cells) in &odd {
            let total_visits = &any[user];
            let set: HashSet<CellId> = cells
                .keys()
                .filter(|cell| total_visits.get(*cell).copied().unwrap_or(0) <= OUTLIER_MAX_VISITS)
                .copied()
                .collect();
            if !set.is_empty() {
                outliers.insert(*user, set);
            }
        }

        Self {
            counts,
            popular_threshold,
            homes,
            offices,
            outliers,
        }
    }

    /// Check-in count of a leaf (by its stable grid index).
    pub fn checkin_count(&self, leaf_index: usize) -> usize {
        self.counts[leaf_index]
    }

    /// All per-leaf check-in counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Whether the leaf at this grid index is popular.
    pub fn is_popular(&self, leaf_index: usize) -> bool {
        self.counts[leaf_index] >= self.popular_threshold
    }

    /// The popularity threshold actually used.
    pub fn popular_threshold(&self) -> usize {
        self.popular_threshold
    }

    /// Inferred home cell of a user.
    pub fn home_of(&self, user: u32) -> Option<CellId> {
        self.homes.get(&user).copied()
    }

    /// Inferred office cell of a user.
    pub fn office_of(&self, user: u32) -> Option<CellId> {
        self.offices.get(&user).copied()
    }

    /// Whether a cell is an inferred outlier location for the user.
    pub fn is_outlier(&self, user: u32, cell: &CellId) -> bool {
        self.outliers
            .get(&user)
            .is_some_and(|set| set.contains(cell))
    }

    /// Users for which a home cell could be inferred.
    pub fn users_with_home(&self) -> Vec<u32> {
        let mut users: Vec<u32> = self.homes.keys().copied().collect();
        users.sort_unstable();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GowallaLikeConfig, GowallaLikeGenerator};
    use corgi_hexgrid::{HexGrid, HexGridConfig};

    fn setup() -> (HexGrid, CheckInDataset, UserAnchors, LocationMetadata) {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (ds, anchors) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let meta = LocationMetadata::from_dataset(&grid, &ds, 0.9);
        (grid, ds, anchors, meta)
    }

    #[test]
    fn popular_cells_are_a_minority_with_high_counts() {
        let (grid, _ds, _anchors, meta) = setup();
        let popular: Vec<usize> = (0..grid.leaf_count())
            .filter(|&i| meta.is_popular(i))
            .collect();
        assert!(!popular.is_empty());
        assert!(
            popular.len() < grid.leaf_count() / 4,
            "{} popular cells",
            popular.len()
        );
        let min_popular = popular
            .iter()
            .map(|&i| meta.checkin_count(i))
            .min()
            .unwrap();
        let max_unpopular = (0..grid.leaf_count())
            .filter(|&i| !meta.is_popular(i))
            .map(|i| meta.checkin_count(i))
            .max()
            .unwrap();
        assert!(min_popular > max_unpopular || min_popular >= meta.popular_threshold());
    }

    #[test]
    fn inferred_home_matches_ground_truth_for_active_users() {
        let (_grid, ds, anchors, meta) = setup();
        // Consider users with at least 50 check-ins: their night-time argmax
        // should usually be the true home cell.
        let mut checked = 0;
        let mut matched = 0;
        for user in meta.users_with_home() {
            if ds.for_user(user).len() >= 50 {
                checked += 1;
                if meta.home_of(user) == anchors.home_of(user) {
                    matched += 1;
                }
            }
        }
        assert!(checked > 0, "no active users in the test dataset");
        assert!(
            matched * 10 >= checked * 7,
            "home inference matched only {matched}/{checked}"
        );
    }

    #[test]
    fn office_inference_exists_for_active_users() {
        let (_grid, ds, _anchors, meta) = setup();
        for user in meta.users_with_home() {
            if ds.for_user(user).len() >= 50 {
                assert!(meta.office_of(user).is_some());
            }
        }
    }

    #[test]
    fn outliers_are_rarely_visited_cells() {
        let (grid, ds, _anchors, meta) = setup();
        for c in ds.checkins() {
            let leaf = grid.leaf_containing(&c.location).unwrap();
            if meta.is_outlier(c.user_id, &leaf) {
                let visits = ds
                    .for_user(c.user_id)
                    .iter()
                    .filter(|cc| grid.leaf_containing(&cc.location).unwrap() == leaf)
                    .count();
                assert!(visits <= OUTLIER_MAX_VISITS);
            }
        }
    }

    #[test]
    #[should_panic(expected = "popular quantile")]
    fn invalid_quantile_rejected() {
        let (grid, ds, _anchors, _meta) = setup();
        let _ = LocationMetadata::from_dataset(&grid, &ds, 1.5);
    }
}
