//! Quickstart: obfuscate a single location with CORGI — across a real socket.
//!
//! Builds a location tree over San Francisco, composes the serving stack
//! (`CachingService<ForestGenerator>`) behind the
//! event-driven TCP server, and runs the trusted client flow (Algorithm 4)
//! over loopback: the client mirrors the server's tree through the version
//! handshake, then policy evaluation → privacy-forest request (framed
//! envelopes over TCP) → prune → precision-reduce → sample an obfuscated
//! cell.
//!
//! Run with: `cargo run --release --example quickstart`

use corgi::core::{LocationTree, Policy, Predicate};
use corgi::datagen::{
    GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution,
};
use corgi::framework::{
    CachingService, CorgiClient, ForestGenerator, MatrixService, MetadataAttributeProvider,
    ServerConfig, TcpServer, TcpTransport, TransportConfig,
};
use corgi::geo::LatLng;
use corgi::hexgrid::{HexGrid, HexGridConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The server builds the spatial index / location tree (Fig. 1, step 1).
    let grid = HexGrid::new(HexGridConfig::san_francisco())?;
    let tree = LocationTree::new(grid.clone());
    println!(
        "Location tree over San Francisco: height {}, {} leaf cells of ~{:.0} m spacing",
        tree.height(),
        tree.leaves().len(),
        1000.0 * grid.leaf_spacing_km()
    );

    // 2. Priors and location labels come from (synthetic) check-in data.
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::default()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);

    // 3. The untrusted server: the raw Algorithm-3 compute path wrapped in a
    //    bounded cache, served by the reactor over framed TCP.
    let config = ServerConfig {
        epsilon: 15.0,
        robust_iterations: 5,
        targets_per_subtree: 20,
        ..ServerConfig::default()
    };
    let stack = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        tree, prior, config,
    )));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        stack.clone() as Arc<dyn MatrixService>,
        TransportConfig::default(),
    )?;

    // 4. The user device connects over TCP: the hello exchange checks the
    //    protocol version and mirrors the server's public tree + prior, and
    //    the transport is itself a MatrixService, so the client code is
    //    identical to the in-process deployment.
    let service: Arc<dyn MatrixService> = Arc::new(TcpTransport::connect(server.local_addr())?);
    println!(
        "Connected to the obfuscation server on {}",
        server.local_addr()
    );
    let user_id = metadata.users_with_home()[0];
    let real_location: LatLng = grid.cell_center(&metadata.home_of(user_id).unwrap());
    let policy = Policy::new(
        1,
        0,
        vec![Predicate::is_false("outlier"), Predicate::is_false("home")],
    )?;
    let provider = MetadataAttributeProvider::new(&grid, &metadata, user_id, real_location);
    let client = CorgiClient::new(Arc::clone(&service), policy, provider)?;

    // 5. Algorithm 4 end to end: the server sees only (privacy_l, |S|); the
    //    matrix selection, pruning and sampling stay on the device.
    let mut rng = StdRng::seed_from_u64(7);
    let outcome = client.generate_obfuscated_location(&real_location, &mut rng)?;
    println!(
        "Real cell {} at {} -> reported cell {} at {} ({} cells pruned by the policy)",
        outcome.real_leaf,
        grid.cell_center(&outcome.real_leaf),
        outcome.report.reported_cell,
        grid.cell_center(&outcome.report.reported_cell),
        outcome.pruned_cells.len()
    );

    // A second report with the same policy hits the server-side cache.
    let again = client.generate_obfuscated_location(&real_location, &mut rng)?;
    println!(
        "Second report (cache hit on the server): {}",
        again.report.reported_cell
    );
    let cache = stack.cache_stats().expect("the stack caches");
    println!(
        "Server cache: {} hits / {} misses / {} resident forests",
        cache.hits, cache.misses, cache.entries
    );
    server.shutdown();
    Ok(())
}
