//! Synthetic Gowalla-like check-in generator.

use crate::{CheckIn, CheckInDataset, UserAnchors, ZipfSampler};
use corgi_geo::Vec2;
use corgi_hexgrid::{CellId, HexGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GowallaLikeConfig {
    /// Number of distinct users.
    pub num_users: usize,
    /// Total number of check-ins to generate (the paper's SF sample has 38,523).
    pub num_checkins: usize,
    /// Number of shared venues (restaurants, bars, parks, ...).
    pub num_venues: usize,
    /// Zipf exponent of the venue-popularity distribution.
    pub venue_zipf_exponent: f64,
    /// Zipf exponent of the per-user activity distribution.
    pub user_zipf_exponent: f64,
    /// Fraction of check-ins that are outlier visits (rare places, odd hours).
    pub outlier_fraction: f64,
    /// Spatial concentration of venues and homes towards the region center:
    /// cells are weighted by `exp(-distance_km / decay_km)`.
    pub center_decay_km: f64,
    /// RNG seed — the whole dataset is a pure function of the configuration.
    pub seed: u64,
    /// Timestamp (Unix seconds) of the first day of the simulated period.
    pub start_timestamp: i64,
    /// Length of the simulated period in days.
    pub duration_days: u32,
}

impl Default for GowallaLikeConfig {
    fn default() -> Self {
        Self {
            num_users: 400,
            num_checkins: 38_523,
            num_venues: 800,
            venue_zipf_exponent: 1.0,
            user_zipf_exponent: 0.8,
            outlier_fraction: 0.02,
            center_decay_km: 3.0,
            seed: 20_230_331,
            // 2010-01-01 00:00:00 UTC — the Gowalla dump covers 2009-2010.
            start_timestamp: 1_262_304_000,
            duration_days: 365,
        }
    }
}

impl GowallaLikeConfig {
    /// A small configuration for fast unit tests.
    pub fn small_test() -> Self {
        Self {
            num_users: 30,
            num_checkins: 2_000,
            num_venues: 60,
            seed: 7,
            ..Self::default()
        }
    }
}

/// Generator of Gowalla-like check-in streams over a [`HexGrid`].
#[derive(Debug, Clone)]
pub struct GowallaLikeGenerator {
    config: GowallaLikeConfig,
}

#[derive(Debug, Clone, Copy)]
enum CheckInKind {
    Home,
    Office,
    Venue,
    Outlier,
}

impl GowallaLikeGenerator {
    /// Create a generator with the given configuration.
    pub fn new(config: GowallaLikeConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GowallaLikeConfig {
        &self.config
    }

    /// Generate the dataset and the ground-truth user anchors.
    pub fn generate(&self, grid: &HexGrid) -> (CheckInDataset, UserAnchors) {
        let cfg = &self.config;
        assert!(
            cfg.num_users > 0 && cfg.num_venues > 0,
            "empty configuration"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Spatial weight of every leaf: concentrate activity towards the center,
        // mimicking the dense downtown core of the SF Gowalla sample.
        let root = grid.root();
        let center_weights: Vec<f64> = grid
            .leaves()
            .iter()
            .map(|leaf| {
                let d = grid.cell_distance_km(leaf, &root);
                (-d / cfg.center_decay_km).exp()
            })
            .collect();

        let sample_weighted_leaf = |rng: &mut StdRng| -> usize {
            let total: f64 = center_weights.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            for (i, w) in center_weights.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    return i;
                }
            }
            center_weights.len() - 1
        };

        // Venues.
        let venue_cells: Vec<usize> = (0..cfg.num_venues)
            .map(|_| sample_weighted_leaf(&mut rng))
            .collect();
        let venue_sampler = ZipfSampler::new(cfg.num_venues, cfg.venue_zipf_exponent);

        // Users: home, office, activity.
        let mut homes = HashMap::new();
        let mut offices = HashMap::new();
        for user in 0..cfg.num_users as u32 {
            let home = sample_weighted_leaf(&mut rng);
            let office = sample_weighted_leaf(&mut rng);
            homes.insert(user, grid.leaves()[home]);
            offices.insert(user, grid.leaves()[office]);
        }
        let user_sampler = ZipfSampler::new(cfg.num_users, cfg.user_zipf_exponent);

        // Check-ins.
        let mut checkins = Vec::with_capacity(cfg.num_checkins);
        let next_location_id = cfg.num_venues as u32;
        for _ in 0..cfg.num_checkins {
            let user = user_sampler.sample(&mut rng) as u32;
            let kind = {
                let roll: f64 = rng.gen();
                if roll < cfg.outlier_fraction {
                    CheckInKind::Outlier
                } else if roll < cfg.outlier_fraction + 0.30 {
                    CheckInKind::Home
                } else if roll < cfg.outlier_fraction + 0.55 {
                    CheckInKind::Office
                } else {
                    CheckInKind::Venue
                }
            };
            let (leaf, location_id, hour) = match kind {
                CheckInKind::Home => {
                    let leaf = homes[&user];
                    // Nights and early mornings.
                    let hour = *[21u8, 22, 23, 0, 1, 6, 7, 8]
                        .get(rng.gen_range(0..8usize))
                        .expect("index in range");
                    (leaf, next_location_id + user * 2, hour)
                }
                CheckInKind::Office => {
                    let leaf = offices[&user];
                    let hour = rng.gen_range(9..18) as u8;
                    (leaf, next_location_id + user * 2 + 1, hour)
                }
                CheckInKind::Venue => {
                    let venue = venue_sampler.sample(&mut rng);
                    let leaf = grid.leaves()[venue_cells[venue]];
                    let hour = rng.gen_range(11..24) as u8;
                    (leaf, venue as u32, hour)
                }
                CheckInKind::Outlier => {
                    let leaf_idx = rng.gen_range(0..grid.leaf_count());
                    let leaf = grid.leaves()[leaf_idx];
                    let hour = rng.gen_range(1..5) as u8;
                    (
                        leaf,
                        next_location_id + cfg.num_users as u32 * 2 + rng.gen_range(0..10_000),
                        hour,
                    )
                }
            };
            let day = rng.gen_range(0..cfg.duration_days) as i64;
            let minute = rng.gen_range(0..60) as i64;
            let timestamp =
                cfg.start_timestamp + day * 86_400 + i64::from(hour) * 3_600 + minute * 60;
            let location = jitter_within_cell(grid, &leaf, &mut rng);
            checkins.push(CheckIn {
                user_id: user,
                timestamp,
                location,
                location_id,
            });
        }

        let anchors = UserAnchors::new(homes, offices);
        (CheckInDataset::new(checkins), anchors)
    }
}

/// A uniformly random point well inside the hexagon of `leaf` (within 60 % of
/// the inradius, so the point always maps back to the same leaf).
fn jitter_within_cell(grid: &HexGrid, leaf: &CellId, rng: &mut StdRng) -> corgi_geo::LatLng {
    let inradius = grid.leaf_spacing_km() / 2.0;
    let radius = 0.6 * inradius * rng.gen::<f64>().sqrt();
    let angle = rng.gen::<f64>() * std::f64::consts::TAU;
    let offset = Vec2::new(radius * angle.cos(), radius * angle.sin());
    let planar = grid.layout().to_planar(leaf.center()) + offset;
    grid.projection().unproject(&planar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgi_hexgrid::HexGridConfig;

    fn grid() -> HexGrid {
        HexGrid::new(HexGridConfig::san_francisco()).unwrap()
    }

    #[test]
    fn generates_requested_number_of_checkins() {
        let grid = grid();
        let (ds, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        assert_eq!(ds.len(), 2_000);
        assert!(ds.num_users() <= 30);
        assert!(
            ds.num_users() > 5,
            "Zipf user sampling still hits many users"
        );
    }

    #[test]
    fn all_checkins_fall_inside_the_grid() {
        let grid = grid();
        let (ds, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        assert_eq!(ds.leaves(&grid).len(), ds.len());
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let grid = grid();
        let cfg = GowallaLikeConfig::small_test();
        let (a, _) = GowallaLikeGenerator::new(cfg).generate(&grid);
        let (b, _) = GowallaLikeGenerator::new(cfg).generate(&grid);
        assert_eq!(a.checkins(), b.checkins());
        let mut cfg2 = cfg;
        cfg2.seed = 99;
        let (c, _) = GowallaLikeGenerator::new(cfg2).generate(&grid);
        assert_ne!(a.checkins(), c.checkins());
    }

    #[test]
    fn checkin_counts_are_spatially_skewed() {
        let grid = grid();
        let (ds, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let counts = ds.counts_per_leaf(&grid);
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        // Skew: the busiest cell carries far more than the average non-empty cell.
        let avg = ds.len() as f64 / nonzero as f64;
        assert!(max as f64 > 4.0 * avg, "max {max}, avg {avg}");
    }

    #[test]
    fn anchors_cover_users_with_checkins() {
        let grid = grid();
        let (ds, anchors) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        for c in ds.checkins().iter().take(200) {
            assert!(anchors.home_of(c.user_id).is_some());
            assert!(anchors.office_of(c.user_id).is_some());
        }
    }

    #[test]
    fn home_checkins_cluster_at_home_cell() {
        let grid = grid();
        let (ds, anchors) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        // For the most active user, a noticeable share of check-ins must fall in
        // the true home cell (30% of kinds are Home by construction).
        let user = ds.checkins()[0].user_id;
        let home = anchors.home_of(user).unwrap();
        let user_checkins = ds.for_user(user);
        let at_home = user_checkins
            .iter()
            .filter(|c| grid.leaf_containing(&c.location).unwrap() == home)
            .count();
        assert!(
            at_home as f64 >= 0.1 * user_checkins.len() as f64,
            "{at_home} of {}",
            user_checkins.len()
        );
    }
}
