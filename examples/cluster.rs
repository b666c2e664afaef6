//! Cluster serving: 3 shards, rendezvous routing, peer replication, HMAC
//! frame authentication — all over loopback.
//!
//! Boots three independent serving stacks, each wrapped as
//! `CachingService(ReplicatingService(ForestGenerator))` and bound behind its
//! own `TcpServer` with a shared cluster key, then:
//!
//! 1. wires the shards into a full replication mesh (every cold-miss solve is
//!    pushed to both peers as a fire-and-forget `WarmPush` frame);
//! 2. routes a request through a [`ShardRouter`], which rendezvous-hashes the
//!    `(privacy_level, δ)` cache key to its owning shard — the cold miss
//!    solves there once;
//! 3. waits for the push to land and reads every shard's counters *over the
//!    wire* (a `Stats` frame returning transport + cache + cluster stats),
//!    showing the key resident on the peers with **zero** LP solves of their
//!    own;
//! 4. asks a peer shard directly for the same key — a pure cache hit;
//! 5. shows that an unkeyed client is turned away with a structured
//!    `Unauthenticated` rejection, not a silent desync;
//! 6. exercises the protocol 1.5 resilience frames: a `Ping` round trip (the
//!    liveness probe behind the peer-health state machine) and a
//!    `Digest`/`DigestReply` anti-entropy pull, re-warming a cold shard from
//!    its peers without a single LP solve.
//!
//! Run with: `cargo run --release --example cluster`
//!
//! [`ShardRouter`]: corgi::framework::ShardRouter

use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::MatrixRequest;
use corgi::framework::{
    rendezvous_rank, CachingService, ClientConfig, ClusterKey, ForestGenerator, MatrixService,
    ReplicatingService, ReplicationConfig, Replicator, RouterConfig, ServerConfig, ShardRouter,
    TcpServer, TcpTransport, TransportConfig,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shared secret for the whole tier: servers, peer links and clients.
    // (Production deployments set CORGI_CLUSTER_KEY instead; every config
    // below defaults to that env var.)
    let key = ClusterKey::from_secret(b"example-cluster-secret");

    // All shards serve the same grid and prior, exactly as all replicas of
    // one deployment would.
    let grid = HexGrid::new(HexGridConfig::san_francisco())?;
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let config = ServerConfig {
        robust_iterations: 1,
        targets_per_subtree: 3,
        worker_threads: 2,
        ..ServerConfig::default()
    };

    // Boot the three shards.  The replicator is handed both to the service
    // stack (which offers every cold-miss solve to it) and to the transport
    // (whose reactor flushes the queues to the peers).
    let mut servers = Vec::new();
    let mut replicators = Vec::new();
    for _ in 0..3 {
        let replicator = Replicator::new(ReplicationConfig {
            cluster_key: Some(key.clone()),
            ..ReplicationConfig::default()
        });
        let service = Arc::new(CachingService::with_defaults(ReplicatingService::new(
            ForestGenerator::new(
                corgi::core::LocationTree::new(grid.clone()),
                prior.clone(),
                config,
            ),
            Arc::clone(&replicator),
        )));
        let server = TcpServer::bind(
            "127.0.0.1:0",
            service as Arc<dyn MatrixService>,
            TransportConfig {
                cluster_key: Some(key.clone()),
                replication: Some(Arc::clone(&replicator)),
                // Pushes carry a whole encoded forest; raise the
                // inbound bound above the request-sized default.
                max_inbound_frame: 8 * 1024 * 1024,
                ..TransportConfig::default()
            },
        )?;
        replicators.push(replicator);
        servers.push(server);
    }
    let endpoints: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    // Full mesh: ports are only known after bind, so peers are added now.
    for (index, replicator) in replicators.iter().enumerate() {
        for (peer, endpoint) in endpoints.iter().enumerate() {
            if peer != index {
                replicator.add_peer(endpoint.clone());
            }
        }
    }
    println!("3-shard cluster on {endpoints:?} (HMAC frame auth on)\n");

    // The router ranks the shards per cache key; index 0 of the ranking owns
    // the key, the rest are its failover order.
    let router = ShardRouter::connect(
        endpoints.iter().cloned(),
        RouterConfig {
            client: ClientConfig {
                cluster_key: Some(key.clone()),
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        },
    )?;
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let ranking = rendezvous_rank(&endpoints, request.privacy_level, request.delta);
    let owner = &endpoints[ranking[0]];
    println!(
        "Key (level {}, δ {}) is owned by shard {owner}",
        request.privacy_level, request.delta
    );

    let start = Instant::now();
    let forest = router.privacy_forest(request)?;
    println!(
        "Cold miss solved on the owner in {:?} ({} subtree LPs)\n",
        start.elapsed(),
        forest.entries.len()
    );

    // One authenticated stats connection per shard: the Stats frame returns
    // the server's transport, cache and cluster counters over the wire.
    let client_config = ClientConfig {
        cluster_key: Some(key.clone()),
        ..ClientConfig::default()
    };
    let stats_conns: Vec<TcpTransport> = servers
        .iter()
        .map(|s| TcpTransport::connect_with(s.local_addr(), client_config.clone()))
        .collect::<Result<_, _>>()?;

    // The push is asynchronous; wait until both peers report the key resident.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resident = stats_conns
            .iter()
            .map(|conn| conn.server_stats())
            .collect::<Result<Vec<_>, _>>()?
            .iter()
            .filter(|report| report.cache.as_ref().is_some_and(|c| c.entries >= 1))
            .count();
        if resident == servers.len() {
            break;
        }
        if Instant::now() > deadline {
            return Err("replication push did not land within 10s".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    println!("After replication (all counters read over the wire):");
    for (endpoint, conn) in endpoints.iter().zip(&stats_conns) {
        let report = conn.server_stats()?;
        let cache = report.cache.expect("every shard stacks a cache");
        let cluster = report
            .cluster
            .expect("every 1.4+ server reports cluster stats");
        println!(
            "  shard {endpoint}: {} resident / {} misses, {} pushes in ({} deduped), {} pushes out",
            cache.entries,
            cache.misses,
            cluster.pushes_received,
            cluster.pushes_deduped,
            cluster.peers.iter().map(|p| p.pushes_sent).sum::<u64>(),
        );
    }

    // A peer that never solved the key serves it straight from its cache.
    let peer = &endpoints[ranking[1]];
    let peer_conn = TcpTransport::connect_with(peer.as_str(), client_config.clone())?;
    let start = Instant::now();
    let replica = peer_conn.privacy_forest(request)?;
    assert_eq!(replica.entries.len(), forest.entries.len());
    let peer_cache = peer_conn
        .server_stats()?
        .cache
        .expect("peer stacks a cache");
    assert_eq!(peer_cache.misses, 0, "the peer never ran an LP solve");
    println!(
        "\nPeer {peer} answered the same key in {:?} — {} hit(s), {} misses: no second solve",
        start.elapsed(),
        peer_cache.hits,
        peer_cache.misses
    );

    // A client without the key is rejected in the handshake with a structured
    // Unauthenticated error (and the server counts the rejection).
    let unkeyed = TcpTransport::connect_with(
        servers[0].local_addr(),
        ClientConfig {
            cluster_key: None,
            ..ClientConfig::default()
        },
    );
    let error = match unkeyed {
        Err(error) => error,
        Ok(_) => return Err("a keyed cluster must reject unkeyed clients".into()),
    };
    println!("\nUnkeyed client rejected: {error}");
    let rejections = stats_conns[0]
        .server_stats()?
        .cluster
        .expect("cluster stats present")
        .auth_rejections;
    println!(
        "Shard {} now counts {rejections} auth rejection(s)",
        endpoints[0]
    );

    // Protocol 1.5: a Ping round trip is the liveness probe behind the
    // peer-health state machine, and a shard's digest summarizes its
    // resident cache keys for anti-entropy re-warm.
    stats_conns[0].ping()?;
    let digest = stats_conns[0].cache_digest()?;
    println!(
        "\nShard {} answers pings; digest: generation {}, {} resident key(s)",
        endpoints[0],
        digest.generation,
        digest.keys.len()
    );

    // A shard joining (or rejoining after a crash) with a cold cache pulls
    // that working set from its peers instead of re-running the solver.
    let cold_service = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        corgi::core::LocationTree::new(grid.clone()),
        prior.clone(),
        config,
    )));
    let cold = TcpServer::bind(
        "127.0.0.1:0",
        cold_service as Arc<dyn MatrixService>,
        TransportConfig {
            cluster_key: Some(key.clone()),
            ..TransportConfig::default()
        },
    )?;
    let report = cold.rewarm_from_peers(&endpoints, client_config.clone());
    println!(
        "Cold shard re-warmed from {} peer(s): {} forest(s) pulled, complete: {}, {} ms, zero solves",
        report.peers_reached,
        report.pulled,
        report.is_complete(),
        report.elapsed_ms
    );
    cold.shutdown();

    let router_stats = router.cluster_stats();
    println!(
        "\nRouter: {} failover(s); per-shard requests {:?}",
        router_stats.failovers,
        router_stats
            .peers
            .iter()
            .map(|p| (p.endpoint.as_str(), p.requests))
            .collect::<Vec<_>>()
    );

    for server in servers {
        server.shutdown();
    }
    Ok(())
}
