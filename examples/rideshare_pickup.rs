//! Ride-share pickup scenario (the paper's motivating LBS use case).
//!
//! A rider wants a car dispatched close to their true position without
//! revealing it.  The example runs the full client/server flow end to end for
//! several riders — each talking framed envelopes to the event-driven TCP
//! server, whose cache is warmed at startup — then compares the pickup
//! estimation error (utility, Eq. 3) and the Bayesian adversary's inference
//! error (privacy) of CORGI against the planar-Laplace baseline.
//!
//! Run with: `cargo run --release --example rideshare_pickup`

use corgi::core::{adversary, laplace::PlanarLaplace, utility, LocationTree, Policy, Predicate};
use corgi::datagen::{
    GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution,
};
use corgi::framework::{
    CachingService, CorgiClient, ForestGenerator, MatrixService, MetadataAttributeProvider,
    ServerConfig, TcpServer, TcpTransport, TransportConfig, WarmRequest,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = HexGrid::new(HexGridConfig::san_francisco())?;
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::default()).generate(&grid);
    let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let epsilon = 15.0;

    // The dispatch server (untrusted): generator → bounded cache, behind the
    // reactor.  The (privacy_level 1, δ) grid riders hit
    // is warmed on the dispatch pool while the listener already accepts.
    let config = ServerConfig {
        epsilon,
        robust_iterations: 4,
        targets_per_subtree: 20,
        ..ServerConfig::default()
    };
    let stack = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid.clone()),
        prior.clone(),
        config,
    )));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        stack.clone() as Arc<dyn MatrixService>,
        TransportConfig {
            warm_on_start: Some(WarmRequest::level(1, 6)),
            ..TransportConfig::default()
        },
    )?;
    // Riders reach the dispatch server over TCP; the transport mirrors the
    // tree and prior through the handshake and implements MatrixService.
    let service: Arc<dyn MatrixService> = Arc::new(TcpTransport::connect(server.local_addr())?);
    let laplace = PlanarLaplace::new(epsilon);
    let mut rng = StdRng::seed_from_u64(2024);

    // A pickup spot of interest: the busiest cell in the region.
    let busiest = (0..grid.leaf_count())
        .max_by_key(|&i| metadata.checkin_count(i))
        .unwrap();
    let pickup_target = grid.cell_center(&grid.leaves()[busiest]);

    let mut corgi_error = 0.0;
    let mut laplace_error = 0.0;
    let mut riders = 0usize;
    for &user in metadata.users_with_home().iter().take(12) {
        let Some(home) = metadata.home_of(user) else {
            continue;
        };
        let real = grid.cell_center(&home);
        // Riders never want to be mapped to their own home or to outlier places.
        let policy = Policy::new(
            1,
            0,
            vec![Predicate::is_false("home"), Predicate::is_false("outlier")],
        )?;
        let provider = MetadataAttributeProvider::new(&grid, &metadata, user, real);
        let client = CorgiClient::new(Arc::clone(&service), policy, provider)?;
        let outcome = client.generate_obfuscated_location(&real, &mut rng)?;
        let reported_center = grid.cell_center(&outcome.report.reported_cell);
        corgi_error += utility::single_target_utility(&real, &reported_center, &pickup_target);

        let laplace_cell = laplace.sample_cell(&grid, &real, &mut rng);
        let laplace_center = grid.cell_center(&laplace_cell);
        laplace_error += utility::single_target_utility(&real, &laplace_center, &pickup_target);
        riders += 1;
    }
    println!("Pickup estimation error towards the busiest venue, averaged over {riders} riders:");
    println!(
        "  CORGI (robust matrix, home/outlier removed): {:.3} km",
        corgi_error / riders as f64
    );
    println!(
        "  Planar Laplace (no customization):           {:.3} km",
        laplace_error / riders as f64
    );

    // Privacy view: what a Bayesian adversary can infer from one subtree's matrix.
    let tree = service.tree();
    let subtree = tree.privacy_forest(1)?[0].clone();
    let response = service.privacy_forest(corgi::framework::messages::MatrixRequest {
        privacy_level: 1,
        delta: 2,
    })?;
    let entry = response
        .matrix_for_leaf(&subtree.leaves()[0])
        .expect("matrix exists");
    let sub_prior = prior
        .restricted_to(&grid, subtree.leaves())
        .unwrap_or_else(|| vec![1.0 / subtree.leaf_count() as f64; subtree.leaf_count()]);
    let distances = tree.distance_matrix(subtree.leaves());
    let inference_error =
        adversary::expected_inference_error(&entry.matrix, &sub_prior, &distances)?;
    let map_success = adversary::map_attack_success(&entry.matrix, &sub_prior)?;
    println!(
        "\nBayesian adversary against the served matrix: expected inference error {:.3} km, MAP success {:.1}% (lower success = more private).",
        inference_error,
        100.0 * map_success
    );

    // Serving-side telemetry: many riders, few distinct (privacy_l, δ) keys —
    // and thanks to the startup warm, rider requests are cache hits.
    let cache = stack.cache_stats().expect("the stack caches");
    println!(
        "\nServer cache (incl. warming): {} hits / {} misses / {} coalesced / {} resident forests.",
        cache.hits, cache.misses, cache.coalesced, cache.entries
    );
    server.shutdown();
    Ok(())
}
