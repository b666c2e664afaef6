//! Cluster integration tests: the replication contract (a cold miss on one
//! shard becomes a warm hit on its peers with zero LP solves of their own,
//! observed purely over the wire), bounded drop-oldest push queues under peer
//! stall, HMAC frame authentication (handshake rejection and post-handshake
//! tamper detection), forest-less pushes refused without a solve, a peer
//! link's bound on what it reads, a replicator's tie to the one live server
//! that drives its links, and router failover when a shard dies mid-run.

use corgi::core::{LocationTree, ObfuscationMatrix};
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::PROTOCOL_VERSION;
use corgi::framework::messages::{
    ForestEntry, MatrixRequest, PrivacyForestResponse, RequestEnvelope, ResponseEnvelope,
};
use corgi::framework::transport::{FrameKind, HelloFrame, HelloReply, FRAME_MAGIC};
use corgi::framework::{
    rendezvous_rank, CachingService, ClientConfig, ClusterKey, ForestGenerator, HealthConfig,
    MatrixService, ReplicatingService, ReplicationConfig, Replicator, RouterConfig, ServerConfig,
    ServiceError, ServiceErrorKind, ShardRouter, TcpServer, TcpTransport, TransportConfig,
    WarmPush, WarmSeedStats, WireCodec,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_HEADER_LEN: usize = corgi::framework::transport::FRAME_HEADER_LEN;

/// One booted shard: its server plus the handles the tests assert against.
struct Shard {
    server: TcpServer,
    replicator: Arc<Replicator>,
}

/// Boot an `n`-shard cluster wired into a full replication mesh.  Every shard
/// runs `CachingService(ReplicatingService(ForestGenerator))`, so exactly the
/// cold-miss single-flight leader offers its solve to the peers.
fn start_cluster(n: usize, key: Option<ClusterKey>) -> Vec<Shard> {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let config = ServerConfig {
        robust_iterations: 1,
        targets_per_subtree: 3,
        worker_threads: 2,
        ..ServerConfig::default()
    };
    let shards: Vec<Shard> = (0..n)
        .map(|_| {
            let replicator = Replicator::new(ReplicationConfig {
                cluster_key: key.clone(),
                ..ReplicationConfig::default()
            });
            let service = Arc::new(CachingService::with_defaults(ReplicatingService::new(
                ForestGenerator::new(LocationTree::new(grid.clone()), prior.clone(), config),
                Arc::clone(&replicator),
            )));
            let server = TcpServer::bind(
                "127.0.0.1:0",
                service as Arc<dyn MatrixService>,
                TransportConfig {
                    cluster_key: key.clone(),
                    replication: Some(Arc::clone(&replicator)),
                    // Pushes carry a whole encoded forest.
                    max_inbound_frame: 8 * 1024 * 1024,
                    // Several reactors whatever the host's core count, so the
                    // 3-shard mesh drives two links from one server's task
                    // beside reactors that serve only connections.
                    reactor_shards: 3,
                    ..TransportConfig::default()
                },
            )
            .expect("binding a cluster shard");
            Shard { server, replicator }
        })
        .collect();
    // Ports are only known after bind; mesh the peers up now.
    let endpoints: Vec<String> = shards
        .iter()
        .map(|s| s.server.local_addr().to_string())
        .collect();
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

fn keyed_client(key: Option<ClusterKey>) -> ClientConfig {
    ClientConfig {
        cluster_key: key,
        read_timeout: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    }
}

/// The replication contract: a cold miss routed to its owner shard must
/// become a warm hit on every peer — confirmed over the wire via `Stats`
/// frames — without the peers ever running an LP solve.
#[test]
fn replication_makes_peer_hits_without_peer_solves_binary() {
    let key = ClusterKey::from_secret(b"cluster-test-key");
    let shards = start_cluster(3, Some(key.clone()));
    let endpoints = endpoints_of(&shards);
    let router = ShardRouter::connect(
        endpoints.iter().cloned(),
        RouterConfig {
            client: keyed_client(Some(key.clone())),
            ..RouterConfig::default()
        },
    )
    .expect("router connects to the keyed cluster");

    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let ranking = rendezvous_rank(&endpoints, request.privacy_level, request.delta);
    router.privacy_forest(request).expect("cold miss solves");

    // One authenticated stats connection per shard; every assertion below
    // reads the server's counters over the wire, not in-process.
    let stats: Vec<TcpTransport> = shards
        .iter()
        .map(|s| {
            TcpTransport::connect_with(s.server.local_addr(), keyed_client(Some(key.clone())))
                .expect("stats connection")
        })
        .collect();

    // The push is asynchronous: wait until the key is resident everywhere.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resident = stats
            .iter()
            .filter(|conn| {
                conn.server_stats()
                    .expect("stats frame")
                    .cache
                    .expect("every shard stacks a cache")
                    .entries
                    >= 1
            })
            .count();
        if resident == shards.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication push did not land within 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for (index, conn) in stats.iter().enumerate() {
        let report = conn.server_stats().expect("stats frame");
        let cache = report.cache.expect("cache stats present");
        let cluster = report.cluster.expect("cluster stats present");
        if index == ranking[0] {
            assert_eq!(cache.misses, 1, "the owner solved the key exactly once");
            let sent: u64 = cluster.peers.iter().map(|p| p.pushes_sent).sum();
            assert!(sent >= 2, "the owner pushed to both peers: {cluster:?}");
        } else {
            // The replication contract: the key is resident with zero LP
            // solves on this shard.
            assert_eq!(cache.misses, 0, "peers never solve the replicated key");
            assert!(cluster.pushes_received >= 1, "{cluster:?}");
        }
        assert!(report.transport.frames_in > 0, "stats travelled the wire");
    }

    // Serving the key from a peer is a pure cache hit.
    let peer = ranking[1];
    let before = stats[peer].server_stats().unwrap().cache.unwrap();
    stats[peer]
        .privacy_forest(request)
        .expect("peer serves the replicated key");
    let after = stats[peer].server_stats().unwrap().cache.unwrap();
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, 0, "still no LP solve on the peer");

    for shard in shards {
        shard.server.shutdown();
    }
}

#[test]
fn push_queue_is_bounded_and_drops_oldest_when_a_peer_stalls() {
    // A peer that is down must not let the queue grow: the bound evicts the
    // oldest push and counts the drop.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let replicator = Replicator::new(ReplicationConfig {
        queue_depth: 3,
        ..ReplicationConfig::default()
    });
    // A closed port: connects are refused at once, so the flusher keeps
    // backing off while offers keep arriving.  Port 1 lies below the
    // ephemeral range, so no server the other tests bind in parallel can be
    // handed it (a freed ephemeral port could be, and then the "dead" peer
    // answers).
    replicator.add_peer("127.0.0.1:1".to_string());
    let service = Arc::new(CachingService::with_defaults(ReplicatingService::new(
        ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            ServerConfig {
                robust_iterations: 1,
                targets_per_subtree: 3,
                worker_threads: 2,
                ..ServerConfig::default()
            },
        ),
        Arc::clone(&replicator),
    )));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn MatrixService>,
        TransportConfig {
            replication: Some(Arc::clone(&replicator)),
            ..TransportConfig::default()
        },
    )
    .unwrap();

    // Eight distinct cold misses → eight offers onto a depth-3 queue.
    for delta in 0..8usize {
        service
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta,
            })
            .unwrap();
    }
    let peer = &server.cluster_stats().peers[0];
    assert!(
        peer.queue_depth <= 3,
        "queue must stay at its bound: {peer:?}"
    );
    assert!(
        peer.pushes_dropped >= 5,
        "overflow evicts the oldest pushes: {peer:?}"
    );
    assert_eq!(
        peer.pushes_sent, 0,
        "nothing reached the dead peer: {peer:?}"
    );
    // The drop counter must also be visible to an operator over the wire —
    // the `Stats` frame carries the same per-peer row the in-process
    // accessor does.
    let stats_conn = TcpTransport::connect_with(server.local_addr(), keyed_client(None)).unwrap();
    let wire = stats_conn.server_stats().unwrap().cluster.unwrap();
    let wire_peer = &wire.peers[0];
    assert!(
        wire_peer.pushes_dropped >= 5,
        "drops travel the Stats frame: {wire_peer:?}"
    );
    assert_eq!(wire_peer.pushes_sent, 0, "{wire_peer:?}");
    server.shutdown();
}

#[test]
fn a_peer_link_fails_on_a_frame_longer_than_a_link_accepts() {
    // A link only ever receives pongs and error responses, so it bounds the
    // frames it reads: a peer that accepts the hello and then announces a
    // 1 MiB frame fails the link at the header, instead of leaving it waiting
    // for a payload it would buffer whole.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_peer = listener.local_addr().unwrap();
    let accepted = HelloReply::Accepted {
        version: PROTOCOL_VERSION,
        grid: *grid.config(),
        prior: prior.clone(),
        auth: None,
    };
    let (done, until_done) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, _) = read_raw_frame(&mut stream);
        assert_eq!(kind, FrameKind::Hello as u8);
        stream
            .write_all(&WireCodec::Binary.encode_frame(&accepted))
            .unwrap();
        let mut header = FRAME_MAGIC.to_vec();
        header.push(FrameKind::Pong as u8);
        header.extend_from_slice(&(1u32 << 20).to_be_bytes());
        stream.write_all(&header).unwrap();
        // Hold the socket open, the payload never sent.  Dropping the
        // listener at the end refuses the link's redials at once.
        let _ = until_done.recv();
    });

    let replicator = Replicator::new(ReplicationConfig {
        cluster_key: None,
        health: None,
        ..ReplicationConfig::default()
    });
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::new(ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            ServerConfig::default(),
        )) as Arc<dyn MatrixService>,
        TransportConfig {
            cluster_key: None,
            replication: Some(Arc::clone(&replicator)),
            ..TransportConfig::default()
        },
    )
    .unwrap();
    replicator.add_peer(fake_peer.to_string());
    // A queued push is what makes a link without probes dial.
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    replicator.offer(
        request,
        &Arc::new(PrivacyForestResponse {
            request,
            epsilon: 15.0,
            entries: Vec::new(),
        }),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while replicator.peer_stats()[0].link_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = replicator.peer_stats()[0].clone();
    done.send(()).unwrap();
    peer.join().unwrap();
    server.shutdown();
    assert_eq!(
        stats.connects, 1,
        "the link dialled the fake peer: {stats:?}"
    );
    assert!(
        stats.link_errors >= 1,
        "a 1 MiB header must fail the link: {stats:?}"
    );
}

#[test]
fn a_shut_down_server_closes_its_replication_links() {
    // A pushes to B over its replication link.  Once A has shut down and
    // every handle to it is gone, its replication task must go too, and B
    // must see the link close instead of holding it open forever.
    let mut shards = start_cluster(2, None);
    let b = shards.pop().unwrap();
    let a = shards.pop().unwrap();
    let client = TcpTransport::connect_with(a.server.local_addr(), keyed_client(None)).unwrap();
    client
        .privacy_forest(MatrixRequest {
            privacy_level: 1,
            delta: 0,
        })
        .expect("A solves the key");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    while b.server.cluster_stats().pushes_received == 0 {
        assert!(
            Instant::now() < deadline,
            "A's push did not reach B within 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(b.server.stats().connections_accepted >= 1);

    let Shard { server, replicator } = a;
    server.shutdown();
    drop(replicator);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = b.server.stats();
        if stats.connections_closed == stats.connections_accepted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "B still holds A's link open 2 s after A shut down: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    b.server.shutdown();
}

#[test]
fn a_replicator_drives_one_live_server() {
    // Two servers on one replicator would both drive every link; the second
    // bind is refused until the first server lets go.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let service: Arc<dyn MatrixService> = Arc::new(ForestGenerator::new(
        LocationTree::new(grid),
        PriorDistribution::uniform(16),
        ServerConfig::default(),
    ));
    let replicator = Replicator::new(ReplicationConfig {
        cluster_key: None,
        ..ReplicationConfig::default()
    });
    let bind = || {
        TcpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            TransportConfig {
                cluster_key: None,
                replication: Some(Arc::clone(&replicator)),
                ..TransportConfig::default()
            },
        )
    };
    let first = bind().expect("the first bind claims the replicator");
    match bind() {
        Ok(_) => panic!("a second live server bound a claimed replicator"),
        Err(error) => assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput),
    }
    first.shutdown();
    let second = bind().expect("shutdown releases the replicator");
    drop(second);
    bind()
        .expect("dropping a server releases the replicator too")
        .shutdown();
}

#[test]
fn dropping_a_probing_router_returns_at_once() {
    // The prober waits out its interval on a stop channel: dropping the
    // router mid-interval must not wait for the next probe round.
    let shards = start_cluster(1, None);
    let router = ShardRouter::connect(
        endpoints_of(&shards),
        RouterConfig {
            client: keyed_client(None),
            health: Some(HealthConfig {
                probe_interval: Duration::from_secs(60),
                ..HealthConfig::default()
            }),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.cluster_stats().probes_sent == 0 {
        assert!(Instant::now() < deadline, "the prober never probed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Dropped on its own thread, so a drop that hangs fails this test
    // instead of hanging it.
    let (dropped, until_dropped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(router);
        let _ = dropped.send(());
    });
    until_dropped
        .recv_timeout(Duration::from_secs(2))
        .expect("dropping the router took more than 2 s");
    for shard in shards {
        shard.server.shutdown();
    }
}

#[test]
fn key_rotation_window_accepts_either_generation() {
    // Mid-rotation, half the fleet signs with the new key while the other
    // half still signs with the old one.  Both directions must verify:
    // a server on {new, prev old} accepts a client still on {old, prev new},
    // and vice versa, because each side signs with its primary and verifies
    // against primary-then-previous.
    let new_server = ClusterKey::from_secret(b"rotation-new").with_previous(b"rotation-old");
    let old_client = ClusterKey::from_secret(b"rotation-old").with_previous(b"rotation-new");
    let shards = start_cluster(1, Some(new_server.clone()));
    let addr = shards[0].server.local_addr();

    // Old-primary client against new-primary server: full handshake plus a
    // sealed request/response round trip.
    let conn = TcpTransport::connect_with(addr, keyed_client(Some(old_client)))
        .expect("rotation window accepts the previous key");
    conn.privacy_forest(MatrixRequest {
        privacy_level: 1,
        delta: 0,
    })
    .expect("sealed request verifies under the rotation window");

    // A client already on the new primary keeps working throughout.
    TcpTransport::connect_with(addr, keyed_client(Some(new_server)))
        .expect("the new primary still handshakes");

    // A key from outside the window is still rejected.
    match TcpTransport::connect_with(
        addr,
        keyed_client(Some(ClusterKey::from_secret(b"rotation-unrelated"))),
    ) {
        Ok(_) => panic!("an unrelated key must not handshake"),
        Err(error) => assert_eq!(error.kind, ServiceErrorKind::Unauthenticated, "{error}"),
    }

    for shard in shards {
        shard.server.shutdown();
    }
}

/// Read one raw frame (header + body) from the stream.  The body includes
/// the MAC trailer when the connection is keyed.
fn read_raw_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
    let mut frame = header.to_vec();
    frame.resize(FRAME_HEADER_LEN + len, 0);
    stream.read_exact(&mut frame[FRAME_HEADER_LEN..]).unwrap();
    (header[2], frame)
}

#[test]
fn tampered_frames_are_rejected_with_a_structured_error() {
    let key = ClusterKey::from_secret(b"tamper-test-key");
    let shards = start_cluster(1, Some(key.clone()));
    let addr = shards[0].server.local_addr();

    // Handshake by hand: a hello announcing hmac-sha256 (hellos are never
    // MAC'd — the reply proves the server holds the key).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&WireCodec::Binary.encode_frame(&HelloFrame::current().authenticated()))
        .unwrap();
    let (kind, reply_frame) = read_raw_frame(&mut stream);
    assert_eq!(kind, FrameKind::HelloReply as u8);
    // The accepted reply is MAC'd: opening it with the key must succeed.
    let payload = key
        .open(&reply_frame)
        .expect("the keyed server authenticates its hello reply");
    let reply: HelloReply = WireCodec::Binary.decode_payload(payload).unwrap();
    match reply {
        HelloReply::Accepted { auth, .. } => {
            assert_eq!(auth.as_deref(), Some(corgi::framework::auth::AUTH_SCHEME));
        }
        HelloReply::Rejected(error) => panic!("hello rejected: {error}"),
    }

    // A correctly sealed request round-trips...
    let envelope = RequestEnvelope::new(
        1,
        MatrixRequest {
            privacy_level: 1,
            delta: 0,
        },
    );
    let frame = key.seal(WireCodec::Binary.encode_frame(&envelope));
    stream.write_all(&frame).unwrap();
    let (kind, reply_frame) = read_raw_frame(&mut stream);
    assert_eq!(kind, FrameKind::Response as u8);
    let payload = key.open(&reply_frame).expect("sealed response");
    let reply: ResponseEnvelope = WireCodec::Binary.decode_payload(payload).unwrap();
    assert_eq!(reply.request_id, 1);
    reply.into_result().expect("valid sealed request succeeds");

    // ...but flipping one payload byte after sealing is detected, answered
    // with a structured Unauthenticated error and the connection dropped.
    let envelope = RequestEnvelope::new(
        2,
        MatrixRequest {
            privacy_level: 1,
            delta: 1,
        },
    );
    let mut frame = key.seal(WireCodec::Binary.encode_frame(&envelope));
    frame[FRAME_HEADER_LEN] ^= 0x01;
    stream.write_all(&frame).unwrap();
    let (kind, reply_frame) = read_raw_frame(&mut stream);
    assert_eq!(kind, FrameKind::Response as u8);
    let payload = key
        .open(&reply_frame)
        .expect("the rejection itself is authenticated");
    let reply: ResponseEnvelope = WireCodec::Binary.decode_payload(payload).unwrap();
    let error = reply.into_result().expect_err("tampered frame is rejected");
    assert_eq!(error.kind, ServiceErrorKind::Unauthenticated);
    assert!(!error.is_retryable(), "auth failures are terminal");

    // The server counted the rejection (visible over the wire too).
    let stats_conn = TcpTransport::connect_with(addr, keyed_client(Some(key.clone()))).unwrap();
    let cluster = stats_conn.server_stats().unwrap().cluster.unwrap();
    assert!(cluster.auth_rejections >= 1, "{cluster:?}");

    for shard in shards {
        shard.server.shutdown();
    }
}

/// A `WarmPush` must carry its forest: a forest-less push is a malformed
/// frame, answered with a structured `Transport` error and a drained
/// connection, and it never schedules a solve on the receiving shard.
#[test]
fn forest_less_push_is_rejected_without_a_solve() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let generator = Arc::new(ForestGenerator::new(
        LocationTree::new(grid.clone()),
        prior,
        ServerConfig {
            robust_iterations: 1,
            targets_per_subtree: 3,
            worker_threads: 2,
            ..ServerConfig::default()
        },
    ));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::new(CachingService::with_defaults(Arc::clone(&generator))) as Arc<dyn MatrixService>,
        TransportConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // An unkeyed handshake by hand.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&WireCodec::Binary.encode_frame(&HelloFrame::current()))
        .unwrap();
    let (kind, reply_frame) = read_raw_frame(&mut stream);
    assert_eq!(kind, FrameKind::HelloReply as u8);
    let reply: HelloReply = WireCodec::Binary
        .decode_payload(&reply_frame[FRAME_HEADER_LEN..])
        .unwrap();
    assert!(matches!(reply, HelloReply::Accepted { .. }), "{reply:?}");

    // A valid push of a (tiny) forest, cut after the forest's presence byte
    // and that byte flipped to 0: exactly the key-only push earlier builds
    // sent.  The payload opens with tag(1) level(1) delta(8) tag(1).
    let root = grid.cells_at_level(1)[0];
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let push = WarmPush {
        privacy_level: request.privacy_level,
        delta: request.delta,
        forest: Arc::new(PrivacyForestResponse {
            request,
            epsilon: 15.0,
            entries: vec![ForestEntry {
                subtree_root: root,
                matrix: ObfuscationMatrix::uniform(root.descendant_leaves()).unwrap(),
            }],
        }),
    };
    let presence = FRAME_HEADER_LEN + 11;
    let mut frame = WireCodec::Binary.encode_frame(&push);
    assert_eq!(frame[presence], 1, "a valid push marks its forest present");
    frame.truncate(presence);
    frame.push(0);
    let len = (frame.len() - FRAME_HEADER_LEN) as u32;
    frame[3..7].copy_from_slice(&len.to_be_bytes());
    stream.write_all(&frame).unwrap();

    let (kind, reply_frame) = read_raw_frame(&mut stream);
    assert_eq!(kind, FrameKind::Response as u8);
    let reply: ResponseEnvelope = WireCodec::Binary
        .decode_payload(&reply_frame[FRAME_HEADER_LEN..])
        .unwrap();
    let error = reply
        .into_result()
        .expect_err("a forest-less push is malformed");
    assert_eq!(error.kind, ServiceErrorKind::Transport, "{error}");
    // The connection is drained: the server closes it after the error.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no frame follows the error");

    let stats = TcpTransport::connect_with(addr, keyed_client(None))
        .unwrap()
        .server_stats()
        .unwrap();
    assert_eq!(stats.transport.transport_errors, 1, "{stats:?}");
    assert_eq!(stats.cache.unwrap().entries, 0, "nothing was inserted");
    assert_eq!(
        generator.warm_stats(),
        WarmSeedStats::default(),
        "the push scheduled no solve"
    );
    server.shutdown();
}

#[test]
fn keyed_cluster_rejects_unkeyed_and_wrong_key_clients() {
    let key = ClusterKey::from_secret(b"handshake-test-key");
    let shards = start_cluster(1, Some(key.clone()));
    let addr = shards[0].server.local_addr();

    let expect_unauthenticated = |result: Result<TcpTransport, ServiceError>| match result {
        Ok(_) => panic!("handshake must fail"),
        Err(error) => assert_eq!(error.kind, ServiceErrorKind::Unauthenticated, "{error}"),
    };
    // No key: the server rejects the hello outright.
    expect_unauthenticated(TcpTransport::connect_with(addr, keyed_client(None)));
    // Wrong key: the server's (correctly) sealed reply fails to open on the
    // client, which refuses to desync.
    expect_unauthenticated(TcpTransport::connect_with(
        addr,
        keyed_client(Some(ClusterKey::from_secret(b"not-the-same-key"))),
    ));
    assert!(shards[0].server.cluster_stats().auth_rejections >= 1);
    // And the right key connects fine.
    TcpTransport::connect_with(addr, keyed_client(Some(key))).expect("matching keys handshake");
    for shard in shards {
        shard.server.shutdown();
    }

    // The mirror case: a keyed client refuses an unkeyed server rather than
    // silently sending MAC-less frames.
    let unkeyed = start_cluster(1, None);
    expect_unauthenticated(TcpTransport::connect_with(
        unkeyed[0].server.local_addr(),
        keyed_client(Some(ClusterKey::from_secret(b"client-only-key"))),
    ));
    for shard in unkeyed {
        shard.server.shutdown();
    }
}

#[test]
fn router_fails_over_when_a_shard_is_killed_mid_run() {
    let shards = start_cluster(2, None);
    let endpoints = endpoints_of(&shards);
    let router = ShardRouter::connect(endpoints.iter().cloned(), RouterConfig::default()).unwrap();

    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let ranking = rendezvous_rank(&endpoints, request.privacy_level, request.delta);
    router.privacy_forest(request).expect("first request");
    assert_eq!(router.cluster_stats().failovers, 0);

    // Kill the owner; the cached connection dies with it.
    let mut shards = shards;
    let owner = shards.remove(ranking[0]);
    owner.server.shutdown();

    // The same key now fails over to the surviving shard (which may serve it
    // straight from its replicated cache) instead of erroring.
    router
        .privacy_forest(request)
        .expect("failover to the surviving shard");
    let stats = router.cluster_stats();
    assert!(stats.failovers >= 1, "{stats:?}");
    let survivor = stats
        .peers
        .iter()
        .find(|p| p.endpoint == endpoints[ranking[1]])
        .unwrap();
    assert!(survivor.requests >= 1, "{stats:?}");

    for shard in shards {
        shard.server.shutdown();
    }
}
