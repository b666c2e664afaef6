//! The user-side middleware (Algorithm 4, Fig. 8).

use crate::messages::{LocationReport, MatrixRequest};
use crate::service::MatrixService;
use corgi_core::{
    precision_reduction, prune_matrix, AttributeProvider, CorgiError, LocationTree,
    ObfuscationMatrix, Policy,
};
use corgi_geo::LatLng;
use corgi_hexgrid::CellId;
use rand::Rng;
use std::sync::Arc;

/// Everything the user-side flow produced for one location report; useful for
/// inspection, tests and the experiment harness.
#[derive(Debug, Clone)]
pub struct ObfuscationOutcome {
    /// The report handed to the third-party service.
    pub report: LocationReport,
    /// The leaf cell actually containing the user.
    pub real_leaf: CellId,
    /// Cells pruned by the preference evaluation (never shared with the server).
    pub pruned_cells: Vec<CellId>,
    /// The customized (pruned, precision-reduced) matrix the report was sampled from.
    pub customized_matrix: ObfuscationMatrix,
}

/// The CORGI client running on the user device (or a trusted edge server).
///
/// The client talks to any [`MatrixService`] through the trait object, so the
/// same client code runs against a bare [`crate::ForestGenerator`], a cached
/// or instrumented stack — or across a process boundary over a
/// [`crate::TcpTransport`], which mirrors the server's tree and prior through
/// the connection handshake.
pub struct CorgiClient<P: AttributeProvider> {
    service: Arc<dyn MatrixService>,
    tree: Arc<LocationTree>,
    policy: Policy,
    attribute_provider: P,
}

impl<P: AttributeProvider> CorgiClient<P> {
    /// Create a client bound to a serving stack, a customization policy, and the
    /// user's private attribute provider.
    pub fn new(
        service: Arc<dyn MatrixService>,
        policy: Policy,
        attribute_provider: P,
    ) -> Result<Self, CorgiError> {
        let tree = service.tree();
        policy.validate_for_height(tree.height())?;
        Ok(Self {
            service,
            tree,
            policy,
            attribute_provider,
        })
    }

    /// The client's policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Algorithm 4: generate an obfuscated location report for the user's real
    /// position.
    ///
    /// 1. find the privacy-forest subtree containing the real location;
    /// 2. evaluate the user preferences on its leaves → prune set `S`;
    /// 3. ask the server for the privacy forest, revealing only `(privacy_l, |S|)`;
    /// 4. select the matrix of the own subtree, prune it, reduce precision;
    /// 5. sample the obfuscated cell from the row of the real location's ancestor.
    pub fn generate_obfuscated_location<R: Rng>(
        &self,
        real_location: &LatLng,
        rng: &mut R,
    ) -> Result<ObfuscationOutcome, CorgiError> {
        let real_leaf = self.tree.leaf_containing(real_location)?;
        let subtree = self
            .tree
            .subtree_containing(&real_leaf, self.policy.privacy_level)?;

        // Step 2: private preference evaluation.  The paper's policies (remove
        // home/office/outliers from the *obfuscation range*) keep the real
        // location as a matrix row even when it matches a predicate, so the
        // real leaf is never pruned.
        let pruned_cells: Vec<CellId> = self
            .policy
            .cells_to_prune(&subtree, &self.attribute_provider)
            .into_iter()
            .filter(|c| *c != real_leaf)
            .collect();

        // Step 3: request the privacy forest (only privacy_l and |S| leave the device).
        let response = self.service.privacy_forest(MatrixRequest {
            privacy_level: self.policy.privacy_level,
            delta: pruned_cells.len(),
        })?;

        // Step 4: select the own subtree's matrix, prune, reduce precision.
        let entry = response
            .matrix_for_leaf(&real_leaf)
            .ok_or(CorgiError::UnknownCell(real_leaf))?;
        let pruned = prune_matrix(&entry.matrix, &pruned_cells)?;
        let prior = self.service.prior();
        let leaf_priors: Vec<f64> = pruned
            .cells()
            .iter()
            .map(|c| prior.prob_of_cell(self.tree.grid(), c).max(1e-12))
            .collect();
        let customized = precision_reduction(
            &pruned,
            &self.tree,
            self.policy.precision_level,
            &leaf_priors,
        )?;

        // Step 5: sample from the row of the real location's ancestor at the
        // precision level.
        let row_cell = real_leaf.ancestor_at(self.policy.precision_level);
        let reported_cell = customized.sample(&row_cell, rng)?;

        Ok(ObfuscationOutcome {
            report: LocationReport {
                reported_cell,
                precision_level: self.policy.precision_level,
            },
            real_leaf,
            pruned_cells,
            customized_matrix: customized,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachingService, ForestGenerator, MetadataAttributeProvider, ServerConfig};
    use corgi_core::{AttributeValue, ComparisonOp, Policy, Predicate};
    use corgi_datagen::{
        GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution,
    };
    use corgi_hexgrid::{HexGrid, HexGridConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        service: Arc<dyn MatrixService>,
        grid: HexGrid,
        metadata: LocationMetadata,
        user: u32,
        real_location: LatLng,
    }

    fn setup() -> Setup {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        let user = metadata.users_with_home()[0];
        let real_location = grid.cell_center(&metadata.home_of(user).unwrap());
        let service: Arc<dyn MatrixService> =
            Arc::new(CachingService::with_defaults(ForestGenerator::new(
                LocationTree::new(grid.clone()),
                prior,
                ServerConfig {
                    robust_iterations: 2,
                    targets_per_subtree: 5,
                    ..ServerConfig::default()
                },
            )));
        Setup {
            service,
            grid,
            metadata,
            user,
            real_location,
        }
    }

    fn policy_no_prefs(privacy: u8, precision: u8) -> Policy {
        Policy::new(privacy, precision, vec![]).unwrap()
    }

    #[test]
    fn report_stays_within_the_privacy_subtree() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        let client =
            CorgiClient::new(Arc::clone(&s.service), policy_no_prefs(1, 0), provider).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let outcome = client
                .generate_obfuscated_location(&s.real_location, &mut rng)
                .unwrap();
            let tree = s.service.tree();
            let subtree = tree.subtree_containing(&outcome.real_leaf, 1).unwrap();
            assert!(subtree.contains(&outcome.report.reported_cell));
            assert_eq!(outcome.report.precision_level, 0);
        }
    }

    #[test]
    fn precision_level_controls_report_granularity() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        let client =
            CorgiClient::new(Arc::clone(&s.service), policy_no_prefs(2, 1), provider).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = client
            .generate_obfuscated_location(&s.real_location, &mut rng)
            .unwrap();
        assert_eq!(outcome.report.reported_cell.level(), 1);
        assert_eq!(outcome.customized_matrix.size(), 7);
    }

    #[test]
    fn preferences_remove_cells_from_the_customized_matrix() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        // Remove the user's home and any outlier cells from the obfuscation range.
        let policy = Policy::new(
            1,
            0,
            vec![Predicate::is_false("home"), Predicate::is_false("outlier")],
        )
        .unwrap();
        let client = CorgiClient::new(Arc::clone(&s.service), policy, provider).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = client
            .generate_obfuscated_location(&s.real_location, &mut rng)
            .unwrap();
        // The real location is the home cell here, and the real cell is never pruned;
        // but any *other* home/outlier cells are gone from the matrix.
        for pruned in &outcome.pruned_cells {
            assert!(outcome.customized_matrix.index_of(pruned).is_none());
            assert_ne!(*pruned, outcome.real_leaf);
        }
        outcome.customized_matrix.check_stochastic(1e-6).unwrap();
    }

    #[test]
    fn distance_preference_limits_obfuscation_range() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        let policy = Policy::new(
            1,
            0,
            vec![Predicate::new(
                "distance",
                ComparisonOp::Le,
                AttributeValue::Number(0.7),
            )],
        )
        .unwrap();
        let client = CorgiClient::new(Arc::clone(&s.service), policy, provider).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = client
            .generate_obfuscated_location(&s.real_location, &mut rng)
            .unwrap();
        // Every surviving cell is within 0.7 km of the real location (plus the
        // real cell itself which is never pruned).
        for cell in outcome.customized_matrix.cells() {
            if *cell == outcome.real_leaf {
                continue;
            }
            let d = corgi_geo::haversine_km(&s.real_location, &s.grid.cell_center(cell));
            assert!(
                d <= 0.7 + 1e-9,
                "cell at {d} km survived the distance filter"
            );
        }
    }

    #[test]
    fn invalid_policy_rejected_at_construction() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        let policy = Policy::new(7, 0, vec![]).unwrap();
        assert!(CorgiClient::new(Arc::clone(&s.service), policy, provider).is_err());
    }

    #[test]
    fn point_outside_region_is_an_error() {
        let s = setup();
        let provider =
            MetadataAttributeProvider::new(&s.grid, &s.metadata, s.user, s.real_location);
        let client =
            CorgiClient::new(Arc::clone(&s.service), policy_no_prefs(1, 0), provider).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let tokyo = LatLng::new(35.67, 139.65).unwrap();
        assert!(client
            .generate_obfuscated_location(&tokyo, &mut rng)
            .is_err());
    }
}
