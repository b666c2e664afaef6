//! Chaos tests for the protocol 1.5 resilience layer: liveness probing marks
//! a killed shard `Down` so routing skips it (and probation re-admits it once
//! it answers again), probes ride connections that are already open and
//! condemn a peer whose socket stays up but whose pongs stop, a restarted
//! shard re-warms its cache from peers with zero LP solver invocations, and
//! scripted fault injection ([`FaultPlan`])
//! proves that dropped frames, corrupted MACs and torn connections surface as
//! structured errors on a fail-fast poisoned connection — never as a hang.
//!
//! Everything observable is asserted over the wire `Stats` frame where the
//! contract is about a server, and through router accessors where it is about
//! routing; the tests run unchanged under both reactor backends
//! (`CORGI_REACTOR_BACKEND`).

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::MatrixRequest;
use corgi::framework::{
    rendezvous_rank, CachingService, ClientConfig, ClusterKey, FaultAction, FaultPlan, FaultSite,
    ForestGenerator, HealthConfig, MatrixService, PeerHealthState, ReplicatingService,
    ReplicationConfig, Replicator, RouterConfig, ServerConfig, ServiceErrorKind, ShardRouter,
    TcpServer, TcpTransport, TransportConfig,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared test world: a small grid, its empirical prior, and a server
/// config sized so a cold solve finishes quickly.
fn world() -> (HexGrid, PriorDistribution, ServerConfig) {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let config = ServerConfig {
        robust_iterations: 1,
        targets_per_subtree: 3,
        worker_threads: 2,
        ..ServerConfig::default()
    };
    (grid, prior, config)
}

/// Aggressive probe cadence so state transitions land within test deadlines.
fn fast_health() -> HealthConfig {
    HealthConfig {
        probe_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(200),
        failure_threshold: 2,
        probation_successes: 2,
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    }
}

/// One booted shard plus the replicator handle the mesh is wired through.
struct Shard {
    server: TcpServer,
    replicator: Arc<Replicator>,
}

/// Boot one shard of the replication mesh at `addr` (use `127.0.0.1:0` for an
/// ephemeral port).  Retries the bind briefly so a just-killed shard can be
/// revived at its old address while the OS releases the socket.
fn boot_shard(
    addr: &str,
    health: Option<HealthConfig>,
    grid: &HexGrid,
    prior: &PriorDistribution,
    config: ServerConfig,
) -> Shard {
    let replicator = Replicator::new(ReplicationConfig {
        health,
        ..ReplicationConfig::default()
    });
    let service = Arc::new(CachingService::with_defaults(ReplicatingService::new(
        ForestGenerator::new(LocationTree::new(grid.clone()), prior.clone(), config),
        Arc::clone(&replicator),
    )));
    let transport_config = || TransportConfig {
        replication: Some(Arc::clone(&replicator)),
        // Pushes and digest pulls carry a whole encoded forest.
        max_inbound_frame: 8 * 1024 * 1024,
        ..TransportConfig::default()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        match TcpServer::bind(
            addr,
            Arc::clone(&service) as Arc<dyn MatrixService>,
            transport_config(),
        ) {
            Ok(server) => break server,
            Err(error) => {
                assert!(
                    Instant::now() < deadline,
                    "binding a shard at {addr} kept failing: {error}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    Shard { server, replicator }
}

/// Boot an `n`-shard cluster wired into a full replication mesh.
fn start_cluster(n: usize, health: Option<HealthConfig>) -> Vec<Shard> {
    let (grid, prior, config) = world();
    let shards: Vec<Shard> = (0..n)
        .map(|_| boot_shard("127.0.0.1:0", health.clone(), &grid, &prior, config))
        .collect();
    let endpoints = endpoints_of(&shards);
    for (index, shard) in shards.iter().enumerate() {
        for (peer, endpoint) in endpoints.iter().enumerate() {
            if peer != index {
                shard.replicator.add_peer(endpoint.clone());
            }
        }
    }
    shards
}

fn endpoints_of(shards: &[Shard]) -> Vec<String> {
    shards
        .iter()
        .map(|s| s.server.local_addr().to_string())
        .collect()
}

/// Poll `condition` until it holds or the deadline expires.
fn wait_for(what: &str, timeout: Duration, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !condition() {
        assert!(
            Instant::now() < deadline,
            "timed out after {timeout:?} waiting for: {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn probes_mark_a_killed_shard_down_and_probation_readmits_it() {
    let shards = start_cluster(2, Some(fast_health()));
    let endpoints = endpoints_of(&shards);
    let router = ShardRouter::connect(
        endpoints.iter().cloned(),
        RouterConfig {
            client: client_config(),
            retry_backoff: Duration::from_millis(5),
            health: Some(fast_health()),
        },
    )
    .expect("router connects");

    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let ranking = rendezvous_rank(&endpoints, request.privacy_level, request.delta);
    let owner = ranking[0];
    let survivor = ranking[1];
    router.privacy_forest(request).expect("initial solve");

    // Kill the owner; the prober must condemn it without any request's help.
    let mut shards = shards;
    let dead = shards.remove(owner);
    dead.server.shutdown();
    wait_for(
        "the prober to mark the dead shard Down",
        Duration::from_secs(10),
        || router.shard_health()[owner] == PeerHealthState::Down,
    );

    // After detection, traffic keeps flowing and *nothing* touches the dead
    // shard: its connect/request counters freeze — no request pays a connect
    // timeout against a known-dead endpoint.
    let before = router.cluster_stats().peers[owner].clone();
    for _ in 0..5 {
        router
            .privacy_forest(request)
            .expect("the survivor serves the key");
    }
    let stats = router.cluster_stats();
    let after = &stats.peers[owner];
    assert_eq!(after.requests, before.requests, "{after:?}");
    assert_eq!(after.connects, before.connects, "{after:?}");
    assert!(stats.probes_sent > 0, "{stats:?}");
    assert!(stats.peers_down >= 1, "{stats:?}");

    // The surviving server probes over its own replication links; its
    // verdict travels the wire `Stats` frame.
    let survivor_conn = TcpTransport::connect_with(endpoints[survivor].as_str(), client_config())
        .expect("stats connection to the survivor");
    wait_for(
        "the survivor's probe counters over the wire",
        Duration::from_secs(10),
        || {
            let cluster = survivor_conn
                .server_stats()
                .expect("stats frame")
                .cluster
                .expect("cluster stats present");
            cluster.probes_sent > 0 && cluster.peers_down >= 1
        },
    );

    // Revive the dead endpoint: probation must re-admit it, after which the
    // owner serves its own key again.
    let (grid, prior, config) = world();
    let revived = boot_shard(&endpoints[owner], None, &grid, &prior, config);
    wait_for(
        "probation to re-admit the revived shard",
        Duration::from_secs(10),
        || router.shard_health()[owner] == PeerHealthState::Healthy,
    );
    let before = router.cluster_stats().peers[owner].requests;
    router.privacy_forest(request).expect("the owner is back");
    assert!(
        router.cluster_stats().peers[owner].requests > before,
        "a re-admitted shard takes traffic again"
    );

    revived.server.shutdown();
    for shard in shards {
        shard.server.shutdown();
    }
}

#[test]
fn probes_ride_established_connections_instead_of_redialing() {
    // Fast cadence, but a deadline no loaded test runner misses: any failed
    // probe here would be a redial, which is what the test rules out.
    let health = HealthConfig {
        probe_timeout: Duration::from_secs(5),
        ..fast_health()
    };
    let shards = start_cluster(2, Some(health.clone()));
    let endpoints = endpoints_of(&shards);
    let router = ShardRouter::connect(
        endpoints.iter().cloned(),
        RouterConfig {
            client: client_config(),
            health: Some(health),
            ..RouterConfig::default()
        },
    )
    .expect("router connects");

    // Twenty probe intervals on every side: the servers ping each other over
    // their replication links, the router pings each shard over its prober
    // connection.
    wait_for("probes on every side", Duration::from_secs(10), || {
        router.cluster_stats().probes_sent >= 40
            && shards
                .iter()
                .all(|shard| shard.server.cluster_stats().probes_sent >= 20)
    });

    // Every probe rode a connection that was already open.  Each shard has
    // accepted one replication link from its peer, one prober connection and
    // at most one request connection from the router — not one connection
    // per probe.
    for (index, shard) in shards.iter().enumerate() {
        let accepted = shard.server.stats().connections_accepted;
        assert!(
            accepted <= 3,
            "shard {index} accepted {accepted} connections"
        );
        let cluster = shard.server.cluster_stats();
        assert_eq!(cluster.peers_down, 0, "{cluster:?}");
        assert_eq!(cluster.peers[0].connects, 1, "{cluster:?}");
        assert_eq!(cluster.peers[0].link_errors, 0, "{cluster:?}");
    }
    assert!(router
        .shard_health()
        .iter()
        .all(|state| *state == PeerHealthState::Healthy));

    drop(router);
    for shard in shards {
        shard.server.shutdown();
    }
}

#[test]
fn a_peer_that_stops_answering_pings_is_condemned() {
    // The peer accepts the link and answers the hello, then drops every
    // frame it sends: its socket stays open, but no pong ever arrives.
    let (grid, prior, config) = world();
    let mute_plan =
        Arc::new(FaultPlan::scripted((1..10_000).map(|step| {
            (FaultSite::ServerSend, step, FaultAction::DropFrame)
        })));
    let mute = TcpServer::bind(
        "127.0.0.1:0",
        Arc::new(CachingService::with_defaults(ForestGenerator::new(
            LocationTree::new(grid.clone()),
            prior.clone(),
            config,
        ))) as Arc<dyn MatrixService>,
        TransportConfig {
            fault_plan: Some(mute_plan),
            ..TransportConfig::default()
        },
    )
    .expect("binding the mute peer");
    let prober = boot_shard("127.0.0.1:0", Some(fast_health()), &grid, &prior, config);
    prober.replicator.add_peer(mute.local_addr().to_string());

    // The missed pong times out on the open link; the redial's hello reply
    // is dropped too, and the second failure condemns the peer.
    wait_for(
        "the mute peer to be condemned",
        Duration::from_secs(10),
        || prober.server.cluster_stats().peers_down >= 1,
    );
    let cluster = prober.server.cluster_stats();
    assert!(cluster.peers[0].connects >= 1, "{cluster:?}");
    assert!(cluster.peers[0].link_errors >= 2, "{cluster:?}");

    prober.server.shutdown();
    mute.shutdown();
}

#[test]
fn restarted_shard_rewarms_from_peers_with_zero_solves() {
    let shards = start_cluster(2, None);
    let endpoints = endpoints_of(&shards);

    // Four cold misses on shard 0; replication makes them resident on shard 1.
    let conn0 =
        TcpTransport::connect_with(endpoints[0].as_str(), client_config()).expect("shard 0");
    for delta in 0..4usize {
        conn0
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta,
            })
            .expect("cold solve");
    }
    let conn1 =
        TcpTransport::connect_with(endpoints[1].as_str(), client_config()).expect("shard 1");
    wait_for(
        "replication pushes to land on shard 1",
        Duration::from_secs(10),
        || {
            conn1
                .server_stats()
                .expect("stats frame")
                .cache
                .expect("cache stats")
                .entries
                >= 4
        },
    );

    // Kill shard 0 and restart it at the same address with a cold cache.
    let mut shards = shards;
    let dead = shards.remove(0);
    dead.server.shutdown();
    let (grid, prior, config) = world();
    let revived = boot_shard(&endpoints[0], None, &grid, &prior, config);

    // Anti-entropy pull: the whole working set comes over the network.
    let report = revived
        .server
        .rewarm_from_peers(&[endpoints[1].clone()], client_config());
    assert_eq!(report.peers_reached, 1, "{report:?}");
    assert_eq!(report.missing, 4, "{report:?}");
    assert_eq!(report.pulled, 4, "{report:?}");
    assert!(report.is_complete(), "{report:?}");

    // The wire contract on the restarted shard: every key resident, the pull
    // counted, and — the whole point — zero cache misses, i.e. the LP solver
    // was never invoked to rejoin.
    let conn =
        TcpTransport::connect_with(endpoints[0].as_str(), client_config()).expect("revived shard");
    let stats = conn.server_stats().expect("stats frame");
    let cache = stats.cache.expect("cache stats");
    assert_eq!(cache.entries, 4, "{cache:?}");
    assert_eq!(cache.misses, 0, "re-warm must not invoke the solver");
    let cluster = stats.cluster.expect("cluster stats");
    assert_eq!(cluster.rewarm_keys_pulled, 4, "{cluster:?}");

    // The serving peer answered every pull from cache: repairs counted, and
    // it never solved anything either (its copies arrived as pushes).
    let peer = conn1.server_stats().expect("stats frame");
    assert_eq!(peer.cluster.expect("cluster stats").pushes_repaired, 4);
    assert_eq!(peer.cache.expect("cache stats").misses, 0);

    // Serving the re-warmed keys is pure cache hits.
    for delta in 0..4usize {
        conn.privacy_forest(MatrixRequest {
            privacy_level: 1,
            delta,
        })
        .expect("re-warmed key serves");
    }
    let cache = conn.server_stats().unwrap().cache.unwrap();
    assert_eq!(cache.hits, 4, "{cache:?}");
    assert_eq!(cache.misses, 0, "{cache:?}");

    // A second pull is a no-op: everything already resident.
    let again = revived
        .server
        .rewarm_from_peers(&[endpoints[1].clone()], client_config());
    assert_eq!(again.pulled, 0, "{again:?}");
    assert_eq!(again.already_resident, 4, "{again:?}");

    revived.server.shutdown();
    for shard in shards {
        shard.server.shutdown();
    }
}

#[test]
fn scripted_faults_surface_structured_errors_and_never_hang() {
    let (grid, prior, config) = world();
    let key = ClusterKey::from_secret(b"chaos-fault-key");
    // Server-send steps are deterministic because exactly one connection
    // exchanges at a time: conn0 hello=0, two warm-up solves=1,2; conn1
    // hello=3, cache hit=4 (dropped); conn2 hello=5, hit=6 (MAC corrupted);
    // conn3 hello=7, hit=8, stats=9; conn4 hello=10, hit=11; conn5 hello=12.
    let server_plan = Arc::new(FaultPlan::scripted([
        (FaultSite::ServerSend, 4, FaultAction::DropFrame),
        (FaultSite::ServerSend, 6, FaultAction::CorruptMac),
    ]));
    let service = Arc::new(CachingService::with_defaults(ForestGenerator::new(
        LocationTree::new(grid),
        prior,
        config,
    )));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        service as Arc<dyn MatrixService>,
        TransportConfig {
            cluster_key: Some(key.clone()),
            fault_plan: Some(Arc::clone(&server_plan)),
            ..TransportConfig::default()
        },
    )
    .expect("binding the faulted server");
    let addr = server.local_addr();
    let client = |plan: Option<Arc<FaultPlan>>, read_timeout: Duration| ClientConfig {
        cluster_key: Some(key.clone()),
        read_timeout: Some(read_timeout),
        fault_plan: plan,
        ..ClientConfig::default()
    };
    let request = |delta: usize| MatrixRequest {
        privacy_level: 1,
        delta,
    };

    // Warm both keys with a generous deadline so every faulted exchange below
    // is a cache hit and its timing is the fault's, not the solver's.
    let conn0 = TcpTransport::connect_with(addr, client(None, Duration::from_secs(30))).unwrap();
    conn0.privacy_forest(request(0)).expect("warm-up solve");
    conn0.privacy_forest(request(1)).expect("warm-up solve");

    // A dropped response: the read deadline turns frame loss into a bounded,
    // structured transport error — not a hang — and poisons the connection.
    let conn1 = TcpTransport::connect_with(addr, client(None, Duration::from_secs(1))).unwrap();
    let started = Instant::now();
    let error = conn1
        .privacy_forest(request(0))
        .expect_err("the response was dropped");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "a lost frame must be bounded by the read deadline"
    );
    assert_eq!(error.kind, ServiceErrorKind::Transport, "{error}");
    // Poisoned: the next call fails fast without touching the socket (a late
    // reply would desynchronize every subsequent exchange).
    let started = Instant::now();
    conn1.privacy_forest(request(0)).expect_err("fails fast");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "no socket wait"
    );

    // A corrupted MAC trailer: rejected as Unauthenticated, then fail-fast.
    let conn2 = TcpTransport::connect_with(addr, client(None, Duration::from_secs(5))).unwrap();
    let error = conn2
        .privacy_forest(request(0))
        .expect_err("the MAC was flipped in flight");
    assert_eq!(error.kind, ServiceErrorKind::Unauthenticated, "{error}");
    conn2
        .privacy_forest(request(0))
        .expect_err("stays poisoned");

    // The server itself is unharmed: a fresh connection serves and reports.
    let conn3 = TcpTransport::connect_with(addr, client(None, Duration::from_secs(5))).unwrap();
    conn3
        .privacy_forest(request(0))
        .expect("the server survived its own faults");
    let stats = conn3.server_stats().expect("stats frame");
    assert_eq!(
        stats.transport.transport_errors, 0,
        "injected faults are not server errors: {stats:?}"
    );

    // Client-side injection: tearing the connection mid-exchange poisons it
    // with a structured error instead of desynchronizing silently.
    let close_plan = Arc::new(FaultPlan::scripted([(
        FaultSite::ClientSend,
        1,
        FaultAction::CloseConnection,
    )]));
    let conn4 =
        TcpTransport::connect_with(addr, client(Some(close_plan), Duration::from_secs(5))).unwrap();
    conn4
        .privacy_forest(request(0))
        .expect("pre-fault exchange");
    let error = conn4
        .privacy_forest(request(1))
        .expect_err("the socket was torn down mid-exchange");
    assert_eq!(error.kind, ServiceErrorKind::Transport, "{error}");
    conn4.privacy_forest(request(0)).expect_err("fails fast");

    // Client-side frame loss: the request never leaves, the reply never
    // comes, the deadline fires, the connection poisons.
    let drop_plan = Arc::new(FaultPlan::scripted([(
        FaultSite::ClientSend,
        0,
        FaultAction::DropFrame,
    )]));
    let conn5 =
        TcpTransport::connect_with(addr, client(Some(drop_plan), Duration::from_secs(1))).unwrap();
    let started = Instant::now();
    let error = conn5
        .privacy_forest(request(0))
        .expect_err("the request was dropped");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "bounded by the deadline"
    );
    assert_eq!(error.kind, ServiceErrorKind::Transport, "{error}");
    conn5.privacy_forest(request(0)).expect_err("fails fast");

    // Partitions are level-triggered and heal: connects fail fast while the
    // partition holds, then succeed again.
    let partition_plan = Arc::new(FaultPlan::empty());
    let resolved = addr.to_socket_addrs().unwrap().next().unwrap().to_string();
    partition_plan.partition(&resolved);
    let partitioned_client = ClientConfig {
        fault_plan: Some(Arc::clone(&partition_plan)),
        ..client(None, Duration::from_secs(5))
    };
    let started = Instant::now();
    let error = TcpTransport::connect_with(addr, partitioned_client.clone())
        .err()
        .expect("a partitioned endpoint must not connect");
    assert!(started.elapsed() < Duration::from_millis(500), "fails fast");
    assert_eq!(error.kind, ServiceErrorKind::Transport, "{error}");
    partition_plan.heal(&resolved);
    TcpTransport::connect_with(addr, partitioned_client).expect("healed partition connects");

    server.shutdown();
}
