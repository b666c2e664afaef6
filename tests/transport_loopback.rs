//! Loopback TCP integration tests of the event-driven serving core: the full
//! client flow across a real socket, ≥ 64 concurrent in-flight requests
//! through one reactor thread, cache warming over the wire, re-warm from a
//! peer, a stack without a cache, and the malformed-input paths of the frame
//! protocol.

use corgi::core::{LocationTree, ObfuscationMatrix, Policy};
use corgi::datagen::{
    GowallaLikeConfig, GowallaLikeGenerator, LocationMetadata, PriorDistribution,
};
use corgi::framework::messages::{
    ForestEntry, MatrixRequest, PrivacyForestResponse, ProtocolVersion, RequestEnvelope,
    ResponseEnvelope, ServiceError, ServiceErrorKind, PROTOCOL_VERSION,
};
use corgi::framework::transport::{
    encode_frame, FrameKind, HelloFrame, HelloReply, FRAME_HEADER_LEN, FRAME_MAGIC,
};
use corgi::framework::{
    CachingService, ClientConfig, CorgiClient, DigestReply, DigestRequest, ForestGenerator,
    MatrixService, MetadataAttributeProvider, ServerConfig, TcpServer, TcpTransport,
    TransportConfig, WarmPush, WarmRequest, WireCodec,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
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

fn start_server(service: Arc<dyn MatrixService>) -> TcpServer {
    TcpServer::bind("127.0.0.1:0", service, TransportConfig::default())
        .expect("binding a loopback server")
}

/// Blocking frame receive used by the raw-socket tests.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    assert_eq!(header[0..2], FRAME_MAGIC, "server always frames correctly");
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok((header[2], payload))
}

/// The next frame must be a `HelloReply`; decode it.
fn read_hello_reply(stream: &mut TcpStream) -> HelloReply {
    let (kind, payload) = read_frame(stream).unwrap();
    assert_eq!(kind, FrameKind::HelloReply as u8);
    WireCodec::Binary.decode_payload(&payload).unwrap()
}

/// The next frame must be a `Response`; decode its envelope.
fn read_response(stream: &mut TcpStream) -> ResponseEnvelope {
    let (kind, payload) = read_frame(stream).unwrap();
    assert_eq!(kind, FrameKind::Response as u8);
    WireCodec::Binary.decode_payload(&payload).unwrap()
}

/// Raw unkeyed hello exchange, for the tests that speak frames by hand.
fn send_hello(stream: &mut TcpStream, version: ProtocolVersion) -> HelloReply {
    let hello = HelloFrame {
        version,
        auth: None,
    };
    stream
        .write_all(&WireCodec::Binary.encode_frame(&hello))
        .unwrap();
    read_hello_reply(stream)
}

#[test]
fn client_flow_works_across_a_real_socket() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let metadata = LocationMetadata::from_dataset(&grid, &dataset, 0.9);
    let server = start_server(caching_stack());

    // The transport mirrors the server's public state through the handshake…
    let transport = Arc::new(TcpTransport::connect(server.local_addr()).unwrap());
    assert!(PROTOCOL_VERSION.is_compatible_with(&transport.server_version()));
    assert_eq!(transport.tree().leaves().len(), 343);

    // …so the unchanged trusted-device client (Algorithm 4) runs over TCP.
    let user = metadata.users_with_home()[0];
    let real = grid.cell_center(&metadata.home_of(user).unwrap());
    let provider = MetadataAttributeProvider::new(&grid, &metadata, user, real);
    let client = CorgiClient::new(
        transport.clone() as Arc<dyn MatrixService>,
        Policy::new(1, 0, vec![]).unwrap(),
        provider,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let outcome = client
        .generate_obfuscated_location(&real, &mut rng)
        .unwrap();
    let tree = transport.tree();
    let subtree = tree.subtree_containing(&outcome.real_leaf, 1).unwrap();
    assert!(subtree.contains(&outcome.report.reported_cell));
    server.shutdown();
}

#[test]
fn sixty_four_inflight_requests_through_one_reactor_thread() {
    // The acceptance bar of the event-driven core: 8 connections × 8
    // pipelined requests = 64 concurrently in-flight envelopes, all decoded,
    // dispatched and answered by a single reactor thread in front of the
    // solver pool.
    let caching = caching_stack();
    let server = start_server(caching.clone() as Arc<dyn MatrixService>);
    let addr = server.local_addr();

    let connections = 8usize;
    let per_connection = 8usize;
    // Four distinct (privacy_level, δ) keys spread over the 64 requests: the
    // cache's single-flight must collapse them to exactly four generations.
    let key_of = move |conn: usize, slot: usize| (conn * per_connection + slot) % 4;

    let handles: Vec<_> = (0..connections)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                match send_hello(&mut stream, PROTOCOL_VERSION) {
                    HelloReply::Accepted { .. } => {}
                    HelloReply::Rejected(e) => panic!("hello rejected: {e}"),
                }
                // Pipeline all 8 requests before reading a single response.
                for slot in 0..per_connection {
                    let envelope = RequestEnvelope::new(
                        slot as u64 + 1,
                        MatrixRequest {
                            privacy_level: 1,
                            delta: key_of(conn, slot),
                        },
                    );
                    stream
                        .write_all(&WireCodec::Binary.encode_frame(&envelope))
                        .unwrap();
                }
                // Responses arrive in completion order; collect and match by id.
                let mut seen = vec![false; per_connection];
                for _ in 0..per_connection {
                    let reply = read_response(&mut stream);
                    let id = reply.request_id as usize;
                    assert!((1..=per_connection).contains(&id), "unknown id {id}");
                    assert!(!seen[id - 1], "duplicate response for id {id}");
                    seen[id - 1] = true;
                    let forest = reply.into_result().unwrap();
                    assert_eq!(forest.entries.len(), 49, "level-1 forest");
                    assert_eq!(forest.request.delta, key_of(conn, id - 1));
                }
                assert!(seen.iter().all(|&s| s), "every request answered");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("connection thread");
    }

    // Cache-deduplicated: 64 requests, exactly 4 generations ran (the other
    // 60 were hits or coalesced onto an in-flight generation).
    let stats = caching.cache_stats().unwrap();
    assert_eq!(stats.hits + stats.misses, 64);
    assert_eq!(
        stats.misses - stats.coalesced,
        4,
        "single-flight must collapse 64 requests onto 4 generations: {stats:?}"
    );
    assert_eq!(stats.entries, 4);
    server.shutdown();
}

#[test]
fn warming_over_the_wire_makes_steady_state_solve_free() {
    let caching = caching_stack();
    let server = start_server(caching.clone() as Arc<dyn MatrixService>);
    let transport = TcpTransport::connect(server.local_addr()).unwrap();

    // Cold cache: nothing resident.
    assert_eq!(caching.cache_stats().unwrap().entries, 0);

    // Warm the level-1 grid for δ ∈ 0..=2 through the Warm frame.
    let plan = WarmRequest::level(1, 2);
    let report = transport.warm(&plan).unwrap();
    assert!(report.is_complete(), "failures: {:?}", report.failures);
    assert_eq!(report.warmed, 3);
    let warmed = caching.cache_stats().unwrap();
    assert_eq!(warmed.entries, 3);

    // Steady state: the whole grid is served without a single further LP
    // solve — every request is a cache hit.
    for delta in 0..=2usize {
        let forest = transport
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta,
            })
            .unwrap();
        assert_eq!(forest.entries.len(), 49);
    }
    let stats = caching.cache_stats().unwrap();
    assert_eq!(stats.hits, 3, "all steady-state requests were hits");
    assert_eq!(stats.misses, warmed.misses, "no post-warm generations");

    // Both ends count the one connection and its frames.
    let client = transport.stats();
    assert_eq!(client.connections_accepted, 1);
    assert_eq!(client.binary_connections, 1);
    assert_eq!(
        client.frames_out, 5,
        "hello + warm + 3 requests: {client:?}"
    );
    assert_eq!(client.frames_in, 5, "hello reply + report + 3 forests");
    assert!(client.bytes_in > client.bytes_out, "forests dwarf requests");
    assert_eq!(client.poisoned_connections, 0);
    let server_stats = server.stats();
    assert_eq!(server_stats.connections_accepted, 1);
    assert_eq!(server_stats.binary_connections, 1);
    server.shutdown();
}

#[test]
fn json_after_the_hello_is_a_poisoning_desync() {
    // A peer that sends JSON bytes after the binary hello has desynchronized
    // its stream: the server answers with a structured Transport error and
    // closes — never a hang.
    let server = start_server(caching_stack() as Arc<dyn MatrixService>);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match send_hello(&mut stream, PROTOCOL_VERSION) {
        HelloReply::Accepted { .. } => {}
        HelloReply::Rejected(e) => panic!("hello rejected: {e}"),
    }
    let envelope = RequestEnvelope::new(
        1,
        MatrixRequest {
            privacy_level: 1,
            delta: 0,
        },
    );
    let json = serde_json::to_string(&envelope).unwrap();
    stream
        .write_all(&encode_frame(FrameKind::Request, json.as_bytes()))
        .unwrap();
    let reply = read_response(&mut stream);
    assert_eq!(reply.request_id, 0, "no request id was decodable");
    let error = reply.into_result().unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "server closed");
    assert!(server.stats().transport_errors >= 1);

    // A corrupted binary frame fails the same structured way.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match send_hello(&mut stream, PROTOCOL_VERSION) {
        HelloReply::Accepted { .. } => {}
        HelloReply::Rejected(e) => panic!("hello rejected: {e}"),
    }
    let mut frame = WireCodec::Binary.encode_frame(&envelope);
    frame[7] ^= 0xff; // first payload byte: the leading field tag
    stream.write_all(&frame).unwrap();
    let error = read_response(&mut stream).into_result().unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "server closed");

    // The client side of the same desync: a server that accepts the hello
    // and then answers in JSON poisons the client's connection, so every
    // further call fails fast instead of reading a stale reply.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stack = caching_stack();
    let accepted = HelloReply::Accepted {
        version: PROTOCOL_VERSION,
        grid: *stack.tree().grid().config(),
        prior: (*stack.prior()).clone(),
        auth: None,
    };
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, _) = read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Hello as u8);
        stream
            .write_all(&WireCodec::Binary.encode_frame(&accepted))
            .unwrap();
        let (kind, _) = read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Request as u8);
        let json = serde_json::to_string(&ResponseEnvelope::error(
            1,
            ServiceError::new(ServiceErrorKind::Internal, "JSON text"),
        ))
        .unwrap();
        stream
            .write_all(&encode_frame(FrameKind::Response, json.as_bytes()))
            .unwrap();
        // Hold the socket open until the client hangs up.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let client = TcpTransport::connect(addr).unwrap();
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let error = client.privacy_forest(request).unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    assert!(error.message.contains("malformed"), "{}", error.message);
    assert_eq!(client.stats().poisoned_connections, 1);
    let error = client.privacy_forest(request).unwrap_err();
    assert!(error.message.contains("poisoned"), "{}", error.message);
    drop(client);
    peer.join().expect("fake server thread");
    server.shutdown();
}

#[test]
fn version_mismatch_is_refused_with_a_structured_error() {
    let server = start_server(caching_stack() as Arc<dyn MatrixService>);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reply = send_hello(
        &mut stream,
        ProtocolVersion {
            major: 99,
            minor: 0,
        },
    );
    match reply {
        HelloReply::Rejected(error) => {
            assert_eq!(error.kind, ServiceErrorKind::UnsupportedVersion);
            assert!(error.message.contains("99.0"), "{}", error.message);
        }
        HelloReply::Accepted { .. } => panic!("major 99 must be refused"),
    }
    // The server closes after rejecting.  A version mismatch is a
    // well-formed exchange, not a transport failure, so the error counter
    // stays at zero…
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    assert_eq!(server.stats().transport_errors, 0);

    // …whereas a peer whose FIRST frame is not a Hello at all is a
    // handshake-phase protocol failure and is counted.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&encode_frame(FrameKind::Request, b"{}"))
        .unwrap();
    match read_hello_reply(&mut stream) {
        HelloReply::Rejected(error) => assert_eq!(error.kind, ServiceErrorKind::Transport),
        HelloReply::Accepted { .. } => panic!("a Request before Hello must be refused"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    assert_eq!(server.stats().transport_errors, 1);

    // The high-level client surfaces the same failure as Err, and the server
    // keeps serving compatible clients afterwards.
    assert!(TcpTransport::connect(server.local_addr()).is_ok());
    server.shutdown();
}

#[test]
fn malformed_frames_return_transport_errors_and_close() {
    let server = start_server(caching_stack() as Arc<dyn MatrixService>);
    let addr = server.local_addr();

    let expect_transport_error = |mut stream: TcpStream| {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reply = read_response(&mut stream);
        assert_eq!(reply.request_id, 0, "no request id was decodable");
        let error = reply.into_result().unwrap_err();
        assert_eq!(error.kind, ServiceErrorKind::Transport);
        // …and the connection is closed afterwards.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        error
    };

    // Bad magic after a valid handshake.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut stream, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    stream.write_all(b"XXXXXXXXXXXXXXXX").unwrap();
    let error = expect_transport_error(stream);
    assert!(error.message.contains("magic"), "{}", error.message);

    // Oversized length prefix: rejected from the header alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut stream, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&FRAME_MAGIC);
    oversized.push(FrameKind::Request as u8);
    oversized.extend_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&oversized).unwrap();
    let error = expect_transport_error(stream);
    assert!(error.message.contains("exceeds"), "{}", error.message);

    // A well-framed Request whose payload is not a RequestEnvelope.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut stream, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    stream
        .write_all(&encode_frame(
            FrameKind::Request,
            b"{\"not\":\"an envelope\"}",
        ))
        .unwrap();
    let error = expect_transport_error(stream);
    assert!(error.message.contains("malformed"), "{}", error.message);

    // Hostile hellos: each gets a structured rejection and a close within
    // the handshake deadline.
    let handshake_timeout = TransportConfig::default().handshake_timeout;
    let expect_hello_rejection = |hello_payload: &[u8]| {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(&encode_frame(FrameKind::Hello, hello_payload))
            .unwrap();
        let error = match read_hello_reply(&mut stream) {
            HelloReply::Rejected(error) => error,
            HelloReply::Accepted { .. } => panic!("a hostile hello must be refused"),
        };
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "server closed");
        assert!(started.elapsed() < handshake_timeout);
        error
    };
    let hello = WireCodec::Binary.encode_frame(&HelloFrame::current());
    let hello = &hello[FRAME_HEADER_LEN..];

    // A protocol 1.x peer's JSON hello: refused as an unsupported version.
    let error = expect_hello_rejection(br#"{"version":{"major":1,"minor":5}}"#);
    assert_eq!(error.kind, ServiceErrorKind::UnsupportedVersion);
    assert!(error.message.contains("JSON"), "{}", error.message);

    // A binary hello cut short inside its last field.
    let error = expect_hello_rejection(&hello[..hello.len() - 1]);
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    assert!(error.message.contains("truncated"), "{}", error.message);

    // A valid hello followed by trailing bytes inside the same frame.
    let error = expect_hello_rejection(&[hello, b"junk"].concat());
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    assert!(error.message.contains("trailing"), "{}", error.message);

    // A hello whose auth scheme claims u32::MAX bytes: the count is checked
    // against the bytes present, so nothing is allocated for it.
    let mut huge = hello.to_vec();
    huge.pop(); // the auth presence byte (0: absent) …
    huge.push(1); // … now present,
    huge.extend_from_slice(&u32::MAX.to_le_bytes()); // with a huge length.
    let error = expect_hello_rejection(&huge);
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    assert!(error.message.contains("count"), "{}", error.message);

    // Every malformed frame and hostile binary hello was counted; the JSON
    // hello is a version refusal, which is not a transport error.
    assert_eq!(server.stats().transport_errors, 6);

    // After all that abuse the server still serves a healthy client.
    let transport = TcpTransport::connect(addr).unwrap();
    let forest = transport
        .privacy_forest(MatrixRequest {
            privacy_level: 1,
            delta: 0,
        })
        .unwrap();
    assert_eq!(forest.entries.len(), 49);
    server.shutdown();
}

#[test]
fn shutdown_closes_the_listener_and_open_connections() {
    // Regression: shutting the reactor down used to leak the listener and
    // connection sockets through an executor-internal reference cycle, so
    // connected clients hung on read until their own timeout instead of
    // seeing EOF.
    let server = start_server(caching_stack() as Arc<dyn MatrixService>);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut stream, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    server.shutdown();
    // The established connection sees EOF promptly (the 30 s read timeout
    // would fail this assertion if the socket leaked).
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "shutdown must close established connections"
    );
    // And the port no longer accepts a full exchange: either the connect is
    // refused outright or the socket is dead (no HelloReply ever comes).
    if let Ok(mut late) = TcpStream::connect(addr) {
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = late.write_all(&WireCodec::Binary.encode_frame(&HelloFrame::current()));
        let mut buf = [0u8; 1];
        assert!(
            !matches!(late.read(&mut buf), Ok(n) if n > 0),
            "a shut-down server must not answer new handshakes"
        );
    }
}

#[test]
fn overload_shed_is_retryable_and_does_not_poison_the_connection() {
    // Regression for the admission-control reply path: a shed used to be
    // indistinguishable from a protocol failure to the client.  The contract
    // is that an `Overloaded` reply echoes the real request id, flows through
    // `into_result()` as a retryable structured error, and leaves the
    // connection healthy — the *same* transport retries successfully.
    struct GatedService {
        inner: Arc<CachingService<ForestGenerator>>,
        state: Arc<(Mutex<GateState>, Condvar)>,
    }
    #[derive(Default)]
    struct GateState {
        entered: bool,
        open: bool,
    }
    impl MatrixService for GatedService {
        fn privacy_forest(
            &self,
            request: MatrixRequest,
        ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
            let (lock, cvar) = &*self.state;
            let mut state = lock.lock().unwrap();
            state.entered = true;
            cvar.notify_all();
            while !state.open {
                state = cvar.wait(state).unwrap();
            }
            drop(state);
            self.inner.privacy_forest(request)
        }
        fn tree(&self) -> Arc<LocationTree> {
            self.inner.tree()
        }
        fn prior(&self) -> Arc<PriorDistribution> {
            self.inner.prior()
        }
    }

    let state = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
    let service = Arc::new(GatedService {
        inner: caching_stack(),
        state: state.clone(),
    });
    // One dispatch thread, backlog limit 1: a single in-flight request
    // saturates the server.
    let config = TransportConfig {
        dispatch_threads: 1,
        max_dispatch_backlog: 1,
        ..TransportConfig::default()
    };
    let server = TcpServer::bind("127.0.0.1:0", service as Arc<dyn MatrixService>, config)
        .expect("binding a loopback server");
    let addr = server.local_addr();
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };

    // Occupy the only dispatch thread with a request parked on the gate…
    let blocker = TcpTransport::connect(addr).unwrap();
    let blocked = std::thread::spawn(move || blocker.privacy_forest(request));
    {
        let (lock, cvar) = &*state;
        let mut s = lock.lock().unwrap();
        while !s.entered {
            let (next, timeout) = cvar.wait_timeout(s, Duration::from_secs(10)).unwrap();
            assert!(!timeout.timed_out(), "blocker never reached the service");
            s = next;
        }
    }

    // …so a second connection's request is shed: a structured, retryable
    // Overloaded error on an unpoisoned connection.
    let probe = TcpTransport::connect(addr).unwrap();
    let error = probe.privacy_forest(request).unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Overloaded);
    assert!(error.is_retryable(), "{error:?}");
    assert!(error.message.contains("retry"), "{}", error.message);
    assert_eq!(probe.stats().poisoned_connections, 0);

    // Release the gate; the parked request completes normally.
    {
        let (lock, cvar) = &*state;
        lock.lock().unwrap().open = true;
        cvar.notify_all();
    }
    let forest = blocked.join().expect("blocker thread").unwrap();
    assert_eq!(forest.entries.len(), 49);

    // The shed connection retries with backoff — on the SAME transport — and
    // succeeds once the backlog drains (the counter decrements just after
    // the blocker's reply is queued, so a retry may race it briefly).
    let mut retries = 0usize;
    let forest = loop {
        match probe.privacy_forest(request) {
            Ok(forest) => break forest,
            Err(e) if e.is_retryable() && retries < 200 => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("retry failed with a non-retryable error: {e:?}"),
        }
    };
    assert_eq!(forest.entries.len(), 49);
    assert_eq!(probe.stats().poisoned_connections, 0);

    let stats = server.stats();
    assert_eq!(stats.requests_shed as usize, 1 + retries, "{stats:?}");
    assert_eq!(stats.requests_admitted, 2, "{stats:?}");
    server.shutdown();
}

#[test]
fn soak_connection_churn_with_aborts_and_malformed_peers() {
    // Thousands of short-lived connections — clean request/close cycles
    // interleaved with abrupt post-handshake disconnects and malformed-frame
    // peers — must leave the server with every accepted connection closed,
    // no poisoned-but-live state, exactly one counted transport error per
    // malformed peer, and a bounded read-buffer high-water mark.
    let caching = caching_stack();
    let server = start_server(caching.clone() as Arc<dyn MatrixService>);
    let addr = server.local_addr();
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };

    // Prime the cache so each cycle's request is a warm hit and the soak
    // exercises the connection lifecycle, not the solver.
    assert_eq!(
        TcpTransport::connect(addr)
            .unwrap()
            .privacy_forest(request)
            .unwrap()
            .entries
            .len(),
        49
    );

    let threads = 3usize;
    let iterations = 700usize;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut malformed = 0u64;
                for i in 0..iterations {
                    match (t + i) % 7 {
                        // Abrupt close right after the handshake: a clean EOF
                        // to the server, not a protocol failure.
                        5 => {
                            let mut stream = TcpStream::connect(addr).unwrap();
                            stream
                                .set_read_timeout(Some(Duration::from_secs(30)))
                                .unwrap();
                            assert!(matches!(
                                send_hello(&mut stream, PROTOCOL_VERSION),
                                HelloReply::Accepted { .. }
                            ));
                            drop(stream);
                        }
                        // Malformed peer: garbage instead of a frame gets a
                        // structured Transport error, then the close.
                        6 => {
                            let mut stream = TcpStream::connect(addr).unwrap();
                            stream
                                .set_read_timeout(Some(Duration::from_secs(30)))
                                .unwrap();
                            assert!(matches!(
                                send_hello(&mut stream, PROTOCOL_VERSION),
                                HelloReply::Accepted { .. }
                            ));
                            stream.write_all(b"XXXXXXXXXXXXXXXX").unwrap();
                            let error = read_response(&mut stream).into_result().unwrap_err();
                            assert_eq!(error.kind, ServiceErrorKind::Transport);
                            malformed += 1;
                        }
                        // Clean cycle: connect, one request, disconnect.
                        _ => {
                            let transport = TcpTransport::connect(addr).unwrap();
                            let forest = transport.privacy_forest(request).unwrap();
                            assert_eq!(forest.entries.len(), 49);
                            assert_eq!(transport.stats().poisoned_connections, 0);
                        }
                    }
                }
                malformed
            })
        })
        .collect();
    let malformed: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("soak thread"))
        .sum();

    // EOF processing is asynchronous to the client's drop; poll until the
    // close counter catches up with the accept counter.
    let expected = (threads * iterations + 1) as u64; // +1 for the priming connection
    let deadline = Instant::now() + Duration::from_secs(20);
    let stats = loop {
        let stats = server.stats();
        if stats.connections_accepted >= expected
            && stats.connections_closed == stats.connections_accepted
        {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "connections never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats.connections_accepted, expected, "{stats:?}");
    assert_eq!(stats.connections_closed, expected, "{stats:?}");
    assert_eq!(stats.transport_errors, malformed, "{stats:?}");
    assert_eq!(stats.poisoned_connections, 0, "{stats:?}");
    // The inbound memory bound holds across the whole soak: no connection's
    // read buffer ever exceeded one maximal frame plus the refill slack.
    let config = TransportConfig::default();
    let bound = (config.max_inbound_frame + FRAME_HEADER_LEN + 4096) as u64;
    assert!(
        stats.read_buffer_high_water > 0 && stats.read_buffer_high_water <= bound,
        "read-buffer high water {} outside (0, {bound}]",
        stats.read_buffer_high_water
    );
    server.shutdown();
}

#[test]
fn mute_connections_are_reaped_at_the_read_idle_deadline() {
    // Regression for the read-idle reaper: a connected-but-mute client must
    // be closed with a structured goodbye once the deadline passes, while an
    // active client on the same server re-arms its deadline with every frame
    // and keeps working across several idle windows.
    let caching = caching_stack();
    let config = TransportConfig {
        read_idle_timeout: Some(Duration::from_millis(400)),
        ..TransportConfig::default()
    };
    let server = TcpServer::bind("127.0.0.1:0", caching as Arc<dyn MatrixService>, config)
        .expect("binding a loopback server");
    let addr = server.local_addr();
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };

    // The mute peer handshakes, then goes silent.
    let mut mute = TcpStream::connect(addr).unwrap();
    mute.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut mute, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));

    // Meanwhile the active client spends longer than one idle window making
    // requests: each inbound frame re-arms its deadline, so it is never
    // reaped.
    let active = TcpTransport::connect(addr).unwrap();
    for _ in 0..3 {
        active
            .privacy_forest(request)
            .expect("an active connection outlives many idle windows");
        std::thread::sleep(Duration::from_millis(250));
    }

    // By now the mute connection crossed its deadline: a structured Transport
    // error naming the policy, then EOF — not a silent drop, never a hang.
    let reply = read_response(&mut mute);
    assert_eq!(reply.request_id, 0, "no request was in flight");
    let error = reply.into_result().unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Transport);
    assert!(error.message.contains("read-idle"), "{}", error.message);
    let mut rest = Vec::new();
    assert_eq!(rest.len(), mute.read_to_end(&mut rest).unwrap(), "reaped");
    assert_eq!(rest.len(), 0, "the goodbye is the last frame");

    // The reap is counted, and the active client still serves.
    assert!(server.stats().transport_errors >= 1);
    active
        .privacy_forest(request)
        .expect("the reaper only touches idle connections");
    server.shutdown();
}

#[test]
fn truncated_frame_is_bounded_by_the_handshake_deadline() {
    // A peer that sends half a frame and goes silent must not pin a
    // connection forever: the deadline closes it.
    let caching = caching_stack();
    let config = TransportConfig {
        handshake_timeout: Duration::from_millis(300),
        ..TransportConfig::default()
    };
    let server = TcpServer::bind("127.0.0.1:0", caching as Arc<dyn MatrixService>, config)
        .expect("binding a loopback server");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Half a hello: magic + kind + a length promising bytes that never come.
    stream.write_all(&FRAME_MAGIC).unwrap();
    stream.write_all(&[FrameKind::Hello as u8]).unwrap();
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "server must close the half-open connection at the deadline"
    );
    server.shutdown();
}

/// A generator whose solves wait at a gate: stacked *under* the cache, it
/// lets a cold miss pin a dispatch thread while resident keys stay servable.
struct GatedGenerator {
    inner: ForestGenerator,
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Default)]
struct GateState {
    closed: bool,
    waiting: usize,
}

impl MatrixService for GatedGenerator {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let (lock, cvar) = &*self.gate;
        let mut state = lock.lock().unwrap();
        state.waiting += 1;
        cvar.notify_all();
        while state.closed {
            state = cvar.wait(state).unwrap();
        }
        state.waiting -= 1;
        drop(state);
        self.inner.privacy_forest(request)
    }
    fn tree(&self) -> Arc<LocationTree> {
        self.inner.tree()
    }
    fn prior(&self) -> Arc<PriorDistribution> {
        self.inner.prior()
    }
}

#[test]
fn resident_hits_are_answered_while_a_cold_solve_holds_the_dispatch_pool() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
    let stack = Arc::new(CachingService::with_defaults(GatedGenerator {
        inner: ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            ServerConfig {
                robust_iterations: 1,
                targets_per_subtree: 3,
                worker_threads: 2,
                ..ServerConfig::default()
            },
        ),
        gate: Arc::clone(&gate),
    }));
    let key = |delta| MatrixRequest {
        privacy_level: 1,
        delta,
    };
    // (1, 0) is resident before the server starts: one miss.
    let resident = stack.privacy_forest(key(0)).unwrap();
    gate.0.lock().unwrap().closed = true;

    // One dispatch thread, backlog limit 1: a single cold solve saturates it.
    let config = TransportConfig {
        dispatch_threads: 1,
        max_dispatch_backlog: 1,
        ..TransportConfig::default()
    };
    let server = TcpServer::bind(
        "127.0.0.1:0",
        stack.clone() as Arc<dyn MatrixService>,
        config,
    )
    .expect("binding a loopback server");
    let addr = server.local_addr();
    let client = || ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        ..ClientConfig::default()
    };

    // A cold (1, 1) takes the only dispatch thread and parks at the gate.
    let blocker = TcpTransport::connect_with(addr, client()).unwrap();
    let blocked = std::thread::spawn(move || blocker.privacy_forest(key(1)));
    {
        let (lock, cvar) = &*gate;
        let mut state = lock.lock().unwrap();
        while state.waiting == 0 {
            let (next, timeout) = cvar.wait_timeout(state, Duration::from_secs(10)).unwrap();
            assert!(
                !timeout.timed_out(),
                "the cold solve never reached the gate"
            );
            state = next;
        }
    }

    // Resident hits on another connection are answered, not shed and not
    // queued behind the solve: the gate is still closed when they return.
    // Two are pipelined, with an id past 2^53, and the bytes on the wire
    // are exactly the dispatch path's frame for the cached forest.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut probe, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    let ids = [(1u64 << 53) + 1, 7];
    for id in ids {
        probe
            .write_all(&WireCodec::Binary.encode_frame(&RequestEnvelope::new(id, key(0))))
            .unwrap();
    }
    for id in ids {
        let (kind, payload) = read_frame(&mut probe).expect("a resident hit is answered");
        let expected =
            WireCodec::Binary.encode_frame(&ResponseEnvelope::forest(id, Arc::clone(&resident)));
        assert_eq!(kind, FrameKind::Response as u8);
        assert!(
            payload == expected[FRAME_HEADER_LEN..],
            "inline reply to {id} differs from the dispatch frame"
        );
    }
    let transport = TcpTransport::connect_with(addr, client()).unwrap();
    let forest = transport
        .privacy_forest(key(0))
        .expect("a hit is never shed");
    assert_eq!(*forest, *resident);
    assert!(
        gate.0.lock().unwrap().closed,
        "answered while the solve held the pool"
    );

    // A key that is not resident still meets admission control.
    let error = transport.privacy_forest(key(2)).unwrap_err();
    assert_eq!(error.kind, ServiceErrorKind::Overloaded, "{error:?}");
    assert_eq!(transport.stats().poisoned_connections, 0);

    // Release the gate; the cold solve completes normally.
    gate.0.lock().unwrap().closed = false;
    gate.1.notify_all();
    let forest = blocked.join().expect("blocker thread").unwrap();
    assert_eq!(forest.request, key(1));

    let cache = stack.cache_stats().unwrap();
    assert_eq!((cache.hits, cache.misses), (3, 2), "{cache:?}");
    let stats = server.stats();
    assert_eq!(stats.requests_admitted, 4, "blocker + 3 hits: {stats:?}");
    assert_eq!(stats.requests_shed, 1, "{stats:?}");
    server.shutdown();
}

/// A one-entry forest for `(1, delta)` over `stack`'s grid: cheap to build,
/// and distinguishable from a solved level-1 forest (49 entries).
fn canned_forest(stack: &dyn MatrixService, delta: usize) -> Arc<PrivacyForestResponse> {
    let root = stack.tree().grid().cells_at_level(1)[0];
    Arc::new(PrivacyForestResponse {
        request: MatrixRequest {
            privacy_level: 1,
            delta,
        },
        epsilon: 15.0,
        entries: vec![ForestEntry {
            subtree_root: root,
            matrix: ObfuscationMatrix::uniform(root.descendant_leaves()).unwrap(),
        }],
    })
}

/// A fake cluster peer on a raw socket.  It accepts one connection, answers
/// the hello and a digest naming `key`, then runs `before_reply` and answers
/// the pull of `key` with `answer`.
fn fake_digest_peer(
    stack: &dyn MatrixService,
    key: MatrixRequest,
    answer: Arc<PrivacyForestResponse>,
    before_reply: impl FnOnce() + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepted = HelloReply::Accepted {
        version: PROTOCOL_VERSION,
        grid: *stack.tree().grid().config(),
        prior: (*stack.prior()).clone(),
        auth: None,
    };
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, _) = read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Hello as u8);
        stream
            .write_all(&WireCodec::Binary.encode_frame(&accepted))
            .unwrap();
        let digest_request = |stream: &mut TcpStream| {
            let (kind, payload) = read_frame(stream).unwrap();
            assert_eq!(kind, FrameKind::Digest as u8);
            WireCodec::Binary
                .decode_payload::<DigestRequest>(&payload)
                .unwrap()
                .pull
        };
        assert_eq!(digest_request(&mut stream), None, "the summary first");
        let summary = DigestReply {
            generation: 1,
            keys: vec![key],
            forest: None,
        };
        stream
            .write_all(&WireCodec::Binary.encode_frame(&summary))
            .unwrap();
        assert_eq!(digest_request(&mut stream), Some(key), "then the pull");
        before_reply();
        let pulled = DigestReply {
            generation: 1,
            keys: Vec::new(),
            forest: Some(answer),
        };
        stream
            .write_all(&WireCodec::Binary.encode_frame(&pulled))
            .unwrap();
        // Hold the socket open until the puller hangs up.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    (addr, peer)
}

#[test]
fn rewarm_counts_only_forests_the_cache_took() {
    let key = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };

    // Live traffic caches the key while its pull is in flight: the pulled
    // forest is not taken, so the key counts as already resident.
    let stack = caching_stack();
    let server = start_server(stack.clone() as Arc<dyn MatrixService>);
    let forest = canned_forest(stack.as_ref(), 0);
    let (addr, peer) = fake_digest_peer(stack.as_ref(), key, Arc::clone(&forest), {
        let stack = Arc::clone(&stack);
        move || {
            stack.cache().unwrap().warm_insert(forest);
        }
    });
    let report = server.rewarm_from_peers(&[addr], ClientConfig::default());
    peer.join().expect("fake peer thread");
    assert_eq!(
        (report.peers_reached, report.missing, report.pulled),
        (1, 0, 0),
        "{report:?}"
    );
    assert_eq!(report.already_resident, 1, "{report:?}");
    assert!(report.is_complete(), "{report:?}");
    assert_eq!(server.cluster_stats().rewarm_keys_pulled, 0);
    server.shutdown();

    // The peer answers the pull of (1, 0) with (1, 1)'s forest: refused as
    // a failure of the pulled key, and nothing is cached.
    let stack = caching_stack();
    let server = start_server(stack.clone() as Arc<dyn MatrixService>);
    let wrong = canned_forest(stack.as_ref(), 1);
    let (addr, peer) = fake_digest_peer(stack.as_ref(), key, wrong, || {});
    let report = server.rewarm_from_peers(&[addr], ClientConfig::default());
    peer.join().expect("fake peer thread");
    assert_eq!(report.pulled, 0, "{report:?}");
    assert_eq!(report.failures.len(), 1, "{report:?}");
    let failure = &report.failures[0];
    assert_eq!((failure.privacy_level, failure.delta), (1, 0));
    assert_eq!(failure.error.kind, ServiceErrorKind::Transport);
    assert!(!report.is_complete());
    assert_eq!(stack.cache_stats().unwrap().entries, 0, "nothing cached");
    assert_eq!(server.cluster_stats().rewarm_keys_pulled, 0);
    server.shutdown();
}

#[test]
fn a_cacheless_stack_serves_requests_and_answers_cache_frames_empty() {
    // A bare generator: no layer of the stack caches.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let stack: Arc<dyn MatrixService> = Arc::new(ForestGenerator::new(
        LocationTree::new(grid),
        prior,
        ServerConfig {
            robust_iterations: 1,
            targets_per_subtree: 3,
            worker_threads: 2,
            ..ServerConfig::default()
        },
    ));
    let server = start_server(Arc::clone(&stack));
    let key = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };

    // The digest is empty at generation 0, and a pull finds nothing.
    let transport = TcpTransport::connect(server.local_addr()).unwrap();
    let digest = transport.cache_digest().unwrap();
    assert_eq!(digest.generation, 0);
    assert!(digest.keys.is_empty(), "{digest:?}");
    assert!(transport.pull_resident(key).unwrap().is_none());

    // Pushes are counted received, never deduped, and the connection stays
    // open: a request behind them is dispatched and answered by a solve.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert!(matches!(
        send_hello(&mut stream, PROTOCOL_VERSION),
        HelloReply::Accepted { .. }
    ));
    let push = WarmPush {
        privacy_level: 1,
        delta: 0,
        forest: canned_forest(stack.as_ref(), 0),
    };
    for _ in 0..2 {
        stream
            .write_all(&WireCodec::Binary.encode_frame(&push))
            .unwrap();
    }
    stream
        .write_all(&WireCodec::Binary.encode_frame(&RequestEnvelope::new(5, key)))
        .unwrap();
    let reply = read_response(&mut stream);
    assert_eq!(reply.request_id, 5);
    assert_eq!(reply.into_result().unwrap().entries.len(), 49, "solved");
    let cluster = server.cluster_stats();
    assert_eq!((cluster.pushes_received, cluster.pushes_deduped), (2, 0));
    assert_eq!(server.stats().requests_admitted, 1);

    // The wire stats carry no cache snapshot.
    assert!(transport.server_stats().unwrap().cache.is_none());
    server.shutdown();
}

#[test]
fn a_connect_to_a_full_accept_backlog_is_bounded_by_the_read_timeout() {
    // A listener that never accepts: once its backlog is full the kernel
    // drops further SYNs, and an unbounded connect waits out every SYN retry
    // (minutes).  The client's read timeout must bound the connect as well.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut held = Vec::new();
    let full =
        (0..1000).any(
            |_| match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(stream) => {
                    held.push(stream);
                    false
                }
                Err(_) => true,
            },
        );
    assert!(full, "1,000 connects never filled the accept backlog");
    // On its own thread, so a connect that hangs fails this test instead of
    // hanging it.
    let (report, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        let connected = TcpTransport::connect_with(
            addr,
            ClientConfig {
                read_timeout: Some(Duration::from_millis(300)),
                cluster_key: None,
                ..ClientConfig::default()
            },
        );
        let _ = report.send((connected.err().map(|e| e.kind), start.elapsed()));
    });
    let (error, elapsed) = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("the connect was still blocked after 10 s");
    assert_eq!(error, Some(ServiceErrorKind::Transport));
    assert!(
        elapsed < Duration::from_secs(2),
        "the connect took {elapsed:?} against a 300 ms read timeout"
    );
    drop(held);
    drop(listener);
}
