//! Cache warming and the cold/warm latency cliff.
//!
//! The serving cache is keyed by `(privacy_level, δ)` — a key space small
//! enough to precompute entirely.  This example starts the event-driven TCP
//! server on loopback, measures a cold request (a full Algorithm-3 forest
//! generation), then warms the rest of the key grid over the wire with a
//! `Warm` frame and shows the steady state: every request a cache hit, no LP
//! solve anywhere on the path.
//!
//! Run with: `cargo run --release --example warm_start`

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::MatrixRequest;
use corgi::framework::{
    CachingService, ForestGenerator, MatrixService, ServerConfig, TcpServer, TcpTransport,
    TransportConfig, WarmRequest,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Server-side stack: generator → bounded LRU cache, behind the reactor.
    let grid = HexGrid::new(HexGridConfig::san_francisco())?;
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let caching = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid),
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
    )?;
    let transport = TcpTransport::connect(server.local_addr())?;
    println!(
        "Event-driven server on {} (protocol {}, {} codec)\n",
        server.local_addr(),
        transport.server_version(),
        transport.codec()
    );

    // Cold: the first request for a key pays for the whole privacy forest.
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let start = Instant::now();
    let forest = transport.privacy_forest(request)?;
    let cold = start.elapsed();
    println!(
        "Cold request  (level 1, δ 0): {cold:>12.3?}  ({} subtree LPs solved)",
        forest.entries.len()
    );
    println!("Cold cache stats: {:?}\n", caching.cache_stats());

    // Warm the remaining grid over the wire: level 1, δ ∈ 0..=2.
    let plan = WarmRequest::level(1, 2);
    let report = transport.warm(&plan)?;
    println!(
        "Warmed {}/{} keys in {} ms (failures: {})\n",
        report.warmed,
        report.requested,
        report.elapsed_ms,
        report.failures.len()
    );

    // Steady state: the whole grid is resident; requests never touch the LP
    // solver again.
    for delta in 0..=2usize {
        let request = MatrixRequest {
            privacy_level: 1,
            delta,
        };
        let start = Instant::now();
        let forest = transport.privacy_forest(request)?;
        let warm = start.elapsed();
        println!(
            "Warm request  (level 1, δ {delta}): {warm:>12.3?}  ({} entries, cache hit, {:.0}x faster than cold)",
            forest.entries.len(),
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)
        );
    }
    let stats = caching
        .cache_stats()
        .expect("the caching layer reports cache stats");
    println!("\nWarmed cache stats: {stats:?}");
    println!(
        "Steady state: {} hits over {} resident forests — the repeated-request path performs no LP solves.",
        stats.hits, stats.entries
    );

    // Connection-level view of the same traffic: frames and bytes that
    // crossed the wire, the codec they travelled in, and whether any
    // backpressure or transport errors occurred.
    let client_stats = transport.stats();
    let server_stats = server.stats();
    println!("\nClient transport stats: {client_stats:?}");
    println!("Server transport stats: {server_stats:?}");
    println!(
        "The {} codec moved {:.1} KiB in / {:.1} KiB out over {} frames with {} backpressure stalls.",
        transport.codec(),
        client_stats.bytes_in as f64 / 1024.0,
        client_stats.bytes_out as f64 / 1024.0,
        client_stats.frames_in + client_stats.frames_out,
        server_stats.backpressure_stalls,
    );
    server.shutdown();
    Ok(())
}
