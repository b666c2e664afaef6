//! Reactor-backend integration tests: the epoll readiness backend answers a
//! request that arrives mid-idle without waiting out the old 500 µs poll
//! tick, and the multi-reactor sharding spreads accepted connections across
//! shards with per-shard counters that sum to the server-wide view.

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::MatrixRequest;
use corgi::framework::{
    CachingService, ForestGenerator, MatrixService, ReactorBackend, ServerConfig, TcpServer,
    TcpTransport, TransportConfig,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn caching_stack() -> Arc<CachingService<ForestGenerator>> {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid),
        prior,
        ServerConfig {
            robust_iterations: 1,
            targets_per_subtree: 3,
            worker_threads: 2,
            ..ServerConfig::default()
        },
    )))
}

/// Median idle-arrival round-trip latency against a server on `backend`.
///
/// Each sampled request is preceded by a few milliseconds of idle time, so
/// the reactor has drained its ready queue and is blocking when the frame
/// lands — exactly the case where the tick backend pays up to a full
/// 500 µs tick before it even notices the socket.
fn median_idle_latency(
    backend: ReactorBackend,
    service: Arc<dyn MatrixService>,
    rounds: usize,
) -> Duration {
    let config = TransportConfig {
        reactor_backend: backend,
        reactor_shards: 1,
        ..TransportConfig::default()
    };
    let server = TcpServer::bind("127.0.0.1:0", service, config).expect("binding loopback server");
    assert_eq!(server.backend(), backend.resolve());
    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    // Populate the cache (and the connection's codec state) before timing:
    // the sampled round trips must be pure serving, not LP solving.
    transport.privacy_forest(request).unwrap();

    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        std::thread::sleep(Duration::from_millis(3));
        let start = Instant::now();
        transport.privacy_forest(request).unwrap();
        samples.push(start.elapsed());
    }
    server.shutdown();
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn mid_idle_request_beats_the_old_tick_window_on_epoll() {
    if ReactorBackend::Epoll.resolve() != ReactorBackend::Epoll {
        eprintln!("epoll unavailable on this host; skipping readiness-latency regression test");
        return;
    }
    let service = caching_stack() as Arc<dyn MatrixService>;
    // Same process, same service (so both backends serve the identical warm
    // cache), interleaving-independent: tick first, then epoll.
    let tick = median_idle_latency(ReactorBackend::Tick, Arc::clone(&service), 40);
    let epoll = median_idle_latency(ReactorBackend::Epoll, service, 40);

    // The old backend discovers an idle-arrival frame only on its next tick
    // (default interval 500 µs).  The readiness backend must answer well
    // inside that window — and never slower than the tick it replaces.
    assert!(
        epoll < Duration::from_micros(450),
        "epoll median idle-arrival latency {epoll:?} is not under the 500 µs tick window"
    );
    assert!(
        epoll <= tick,
        "epoll median {epoll:?} must not regress past the tick backend's {tick:?}"
    );
}

#[test]
fn shards_split_accepted_connections_and_stats_aggregate() {
    let config = TransportConfig {
        reactor_shards: 3,
        ..TransportConfig::default()
    };
    let server = TcpServer::bind(
        "127.0.0.1:0",
        caching_stack() as Arc<dyn MatrixService>,
        config,
    )
    .expect("binding sharded loopback server");
    assert_eq!(server.shard_count(), 3);

    // Nine sequential connections, one request each: the accept loop
    // round-robins, so every shard must own exactly three of them.
    for delta in 0..9usize {
        let transport = TcpTransport::connect(server.local_addr()).unwrap();
        let forest = transport
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta: delta % 3,
            })
            .unwrap();
        assert_eq!(forest.entries.len(), 49);
    }

    let shards = server.shard_stats();
    assert_eq!(shards.len(), 3);
    for (index, shard) in shards.iter().enumerate() {
        assert_eq!(
            shard.connections_accepted, 3,
            "shard {index} must account for its third of the connections: {shard:?}"
        );
        // Hello + request at minimum — the connection really ran on this
        // shard's reactor, it wasn't just counted at accept time.
        assert!(
            shard.frames_in >= 2,
            "shard {index} never decoded its connections' frames: {shard:?}"
        );
    }

    // The server-wide snapshot is exactly the fold of the per-shard ones.
    let mut folded = shards[0];
    for shard in &shards[1..] {
        folded.merge(shard);
    }
    assert_eq!(server.stats(), folded);
    server.shutdown();
}
