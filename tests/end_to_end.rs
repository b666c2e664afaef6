//! Cross-crate integration tests: the full CORGI pipeline from synthetic
//! check-ins to an obfuscated report, and the paper's robustness claim checked
//! end to end through the client/server framework.

use corgi::core::{generate_nonrobust_matrix, generate_robust_matrix, RobustConfig};
use corgi::core::{geoind, prune_matrix, LocationTree, Policy, Predicate};
use corgi::datagen::{
    GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution,
};
use corgi::framework::{
    messages::MatrixRequest, CachingService, CorgiClient, ForestGenerator, MatrixService,
    MetadataAttributeProvider, ServerConfig, TcpServer, TcpTransport, TransportConfig, WarmRequest,
};
use corgi::geo::LatLng;
use corgi::hexgrid::{HexGrid, HexGridConfig};
use rand::prelude::*;
use std::sync::Arc;

fn experiment_grid() -> HexGrid {
    HexGrid::new(HexGridConfig {
        center: LatLng::new(37.7749, -122.4194).unwrap(),
        height: 3,
        leaf_spacing_km: 0.12,
    })
    .unwrap()
}

#[test]
fn full_pipeline_produces_in_range_reports() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    // The full production stack: generator → bounded cache, behind the
    // service trait object.
    let caching = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid.clone()),
        prior,
        ServerConfig {
            robust_iterations: 2,
            targets_per_subtree: 5,
            ..ServerConfig::default()
        },
    )));
    let service: Arc<dyn MatrixService> = caching.clone();
    let mut rng = StdRng::seed_from_u64(9);
    let mut reports = 0usize;
    for &user in metadata.users_with_home().iter().take(3) {
        let home = metadata.home_of(user).unwrap();
        let real = grid.cell_center(&home);
        let policy = Policy::new(1, 0, vec![Predicate::is_false("outlier")]).unwrap();
        let provider = MetadataAttributeProvider::new(&grid, &metadata, user, real);
        let client = CorgiClient::new(Arc::clone(&service), policy, provider).unwrap();
        let outcome = client
            .generate_obfuscated_location(&real, &mut rng)
            .unwrap();
        // The report is a cell of the grid, at the requested precision, inside the
        // user's privacy-level subtree.
        let tree = service.tree();
        let subtree = tree.subtree_containing(&outcome.real_leaf, 1).unwrap();
        assert!(subtree.contains(&outcome.report.reported_cell));
        assert_eq!(outcome.report.precision_level, 0);
        outcome.customized_matrix.check_stochastic(1e-6).unwrap();
        reports += 1;
    }
    assert_eq!(reports, 3);
    // The cache observed the traffic: every request was counted as a hit or
    // a miss and the generated forests are resident.
    let stats = caching.cache_stats().unwrap();
    assert_eq!(stats.hits + stats.misses, 3, "{stats:?}");
    assert!(stats.entries >= 1);
}

#[test]
fn full_pipeline_over_the_tcp_transport() {
    // The same trusted-device flow, but the serving stack sits behind the
    // event-driven TCP server with a warmed cache and the client side is a
    // TcpTransport that learned the tree and prior from the handshake.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let caching = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid.clone()),
        prior,
        ServerConfig {
            robust_iterations: 2,
            targets_per_subtree: 5,
            ..ServerConfig::default()
        },
    )));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&caching) as Arc<dyn MatrixService>,
        TransportConfig::default(),
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::connect(server.local_addr()).unwrap());

    // Warm the grid the clients below will hit, over the wire.
    let report = transport.warm(&WarmRequest::level(1, 3)).unwrap();
    assert!(report.is_complete(), "failures: {:?}", report.failures);
    let warmed_misses = caching.cache_stats().unwrap().misses;

    let service: Arc<dyn MatrixService> = transport;
    let mut rng = StdRng::seed_from_u64(9);
    for &user in metadata.users_with_home().iter().take(3) {
        let home = metadata.home_of(user).unwrap();
        let real = grid.cell_center(&home);
        let policy = Policy::new(1, 0, vec![Predicate::is_false("outlier")]).unwrap();
        let provider = MetadataAttributeProvider::new(&grid, &metadata, user, real);
        let client = CorgiClient::new(Arc::clone(&service), policy, provider).unwrap();
        let outcome = client
            .generate_obfuscated_location(&real, &mut rng)
            .unwrap();
        let tree = service.tree();
        let subtree = tree.subtree_containing(&outcome.real_leaf, 1).unwrap();
        assert!(subtree.contains(&outcome.report.reported_cell));
        outcome.customized_matrix.check_stochastic(1e-6).unwrap();
    }
    // The warmed keys absorbed the client traffic: no further generations
    // (clients whose δ fell inside the warmed grid were pure hits).
    let stats = caching.cache_stats().unwrap();
    assert!(
        stats.misses <= warmed_misses + 1,
        "client traffic should be cache-hit dominated after warming: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn server_learns_only_privacy_level_and_delta() {
    // The request type sent to the server carries exactly two fields; the exact
    // pruned cells and the user's subtree stay on the device.
    let request = MatrixRequest {
        privacy_level: 2,
        delta: 3,
    };
    let as_json = serde_json::to_value(request).unwrap();
    assert_eq!(as_json.as_object().unwrap().len(), 2);
}

#[test]
fn robust_matrix_beats_nonrobust_after_pruning_end_to_end() {
    // The paper's headline, checked through the whole stack at a reduced size:
    // generate both matrices over a 49-cell range from synthetic-data priors,
    // prune random cells, compare Geo-Ind violation rates.
    let grid = experiment_grid();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let tree = LocationTree::new(grid.clone());
    let subtree = tree.privacy_forest(2).unwrap()[0].clone();
    let restricted = prior
        .restricted_to(&grid, subtree.leaves())
        .unwrap_or_else(|| vec![1.0 / 49.0; 49]);
    let targets: Vec<usize> = (0..49).step_by(3).collect();
    let epsilon = 15.0;
    let problem =
        corgi::core::ObfuscationProblem::new(&tree, &subtree, &restricted, &targets, epsilon, true)
            .unwrap();

    let delta = 3;
    let nonrobust = generate_nonrobust_matrix(&problem).unwrap();
    let robust = generate_robust_matrix(
        &problem,
        &RobustConfig {
            delta,
            iterations: 4,
        },
    )
    .unwrap()
    .matrix;

    let mut rng = StdRng::seed_from_u64(123);
    let trials = 25;
    let mut pct = [0.0f64; 2];
    for _ in 0..trials {
        let mut cells = problem.cells().to_vec();
        cells.shuffle(&mut rng);
        let prune: Vec<_> = cells[..delta].to_vec();
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
        for (slot, matrix) in [&nonrobust, &robust].into_iter().enumerate() {
            let pruned = prune_matrix(matrix, &prune).unwrap();
            let report = geoind::check_all_pairs(&pruned, &distances, epsilon, 1e-7);
            pct[slot] += report.violation_percentage() / trials as f64;
        }
    }
    assert!(
        pct[1] < pct[0],
        "CORGI ({:.2}%) must violate fewer constraints than non-robust ({:.2}%)",
        pct[1],
        pct[0]
    );
    assert!(
        pct[1] < 5.0,
        "CORGI violations should be small, got {:.2}%",
        pct[1]
    );
}

#[test]
fn planar_laplace_baseline_integrates_with_the_grid() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let mechanism = corgi::core::laplace::PlanarLaplace::new(10.0);
    let real = grid.cell_center(&grid.leaves()[150]);
    let mut rng = StdRng::seed_from_u64(4);
    let mut total = 0.0;
    let n = 300;
    for _ in 0..n {
        let cell = mechanism.sample_cell(&grid, &real, &mut rng);
        total += corgi::geo::haversine_km(&real, &grid.cell_center(&cell));
    }
    let mean_error = total / n as f64;
    // ε = 10/km implies a mean radial error of 2/ε = 0.2 km; cell snapping adds
    // at most about half a cell.
    assert!(
        mean_error < 0.8,
        "mean displacement {mean_error} km is implausibly large"
    );
}
