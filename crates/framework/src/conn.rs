//! The client side of the wire: one connection type, one hello exchange.
//!
//! Every outbound connection in the framework — a [`TcpTransport`] serving a
//! device or a shard router, the router's liveness prober, a replication link
//! streaming `WarmPush` frames and probes to a peer — is a [`Conn`] opened by
//! [`Conn::open`], so the version and authentication handshake exists
//! exactly once on the client side (the server side of the exchange lives in
//! [`crate::transport`]).
//!
//! A `Conn` itself is blocking: one sealed frame out, one verified frame
//! back, bounded by the socket read timeout ([`Conn::send_sealed`] /
//! [`Conn::recv`]), each reply read with one `read_exact` into its final
//! buffer.  This is how [`TcpTransport`] runs its request/response
//! exchanges.  A reactor task that must never block — the replication link
//! of [`crate::cluster`] — turns its opened `Conn` into a nonblocking
//! [`FrameStream`] ([`Conn::into_frame_stream`]), the same frame loop the
//! server's connections run on.

use crate::auth::{ClusterKey, AUTH_SCHEME};
use crate::cluster::{Ping, Pong, StatsReport, StatsRequest};
use crate::codec::WireMessage;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::frame::{
    parse_frame_header, FrameKind, FrameStream, HelloFrame, HelloReply, FRAME_HEADER_LEN,
};
use crate::messages::{
    MatrixRequest, PrivacyForestResponse, ProtocolVersion, RequestEnvelope, ResponseEnvelope,
    ServiceError, WireCodec,
};
use crate::service::MatrixService;
use crate::transport::{TransportMetrics, TransportStats};
use crate::warm::{DigestReply, DigestRequest, WarmReport, WarmRequest};
use corgi_core::LocationTree;
use corgi_datagen::PriorDistribution;
use corgi_hexgrid::{HexGrid, HexGridConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Largest accepted frame payload from a server or peer.  Responses carry
/// whole privacy forests (and an accepted hello the grid and prior), so this
/// is generous.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Tunables of a client connection: a [`TcpTransport`], or a shard router's
/// connections ([`RouterConfig::client`](crate::RouterConfig::client)).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bounds each connect attempt and, as the socket read timeout, each
    /// blocking receive: how long an unreachable peer (a full accept backlog,
    /// a blackholed address) or a truncated or withheld response can stall a
    /// caller.  `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Never read: every connection speaks the binary codec since protocol
    /// 2.0.  Kept so configs that still set it compile.
    #[deprecated(note = "protocol 2.0 is binary-only; this field is never read")]
    pub codecs: Vec<WireCodec>,
    /// Cluster key for keyed frame authentication (protocol 1.4).  When set,
    /// the hello announces `hmac-sha256`, every post-handshake frame in both
    /// directions carries a MAC trailer, and connecting to an unkeyed or
    /// differently-keyed server fails with a structured
    /// [`Unauthenticated`](crate::ServiceErrorKind::Unauthenticated) error.
    /// The default reads `CORGI_CLUSTER_KEY` (see [`ClusterKey::from_env`]).
    pub cluster_key: Option<ClusterKey>,
    /// Deterministic fault injection for this client's connect and send
    /// paths (protocol 1.5 chaos testing; see [`crate::fault`]).  `None` —
    /// the default — costs one pointer check per exchange.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ClientConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(600)),
            codecs: Vec::new(),
            cluster_key: ClusterKey::from_env(),
            fault_plan: None,
        }
    }
}

/// Connect to the first candidate that answers, each attempt bounded by
/// `timeout` (`None` waits as long as the kernel does).
fn connect(candidates: &[SocketAddr], timeout: Option<Duration>) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::InvalidInput,
        "could not resolve to any addresses",
    );
    for candidate in candidates {
        let attempt = match timeout {
            Some(timeout) => TcpStream::connect_timeout(candidate, timeout),
            None => TcpStream::connect(candidate),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(error) => last = error,
        }
    }
    Err(last)
}

/// What an accepted hello told the client: everything it needs to mirror the
/// server's public state.
pub(crate) struct ServerHello {
    pub(crate) version: ProtocolVersion,
    pub(crate) grid: HexGridConfig,
    pub(crate) prior: PriorDistribution,
}

/// An established (post-hello) client connection; see the module docs.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Frame-authentication key agreed in the hello (`None` means plain
    /// frames): outbound frames are sealed, inbound frames are verified and
    /// stripped.
    auth: Option<ClusterKey>,
    metrics: Arc<TransportMetrics>,
}

impl Conn {
    /// Connect and run the hello exchange: announce our protocol version
    /// (and the `hmac-sha256` scheme when keyed), then validate the reply.
    /// `config.read_timeout` bounds each connect attempt, and the socket
    /// keeps it for blocking use.
    pub(crate) fn open(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
        metrics: Arc<TransportMetrics>,
    ) -> Result<(Self, ServerHello), ServiceError> {
        let candidates: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServiceError::transport(format!("connect failed: {e}")))?
            .collect();
        if let Some(plan) = &config.fault_plan {
            // Level-triggered partitions fail the connect fast, endpoint by
            // endpoint, exactly like an unreachable host would.
            let partitioned = candidates
                .iter()
                .any(|candidate| plan.is_partitioned(&candidate.to_string()));
            if partitioned {
                return Err(ServiceError::transport(
                    "connect failed: endpoint is partitioned (injected)",
                ));
            }
        }
        let mut stream = connect(&candidates, config.read_timeout)
            .map_err(|e| ServiceError::transport(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(|e| ServiceError::transport(format!("setting read timeout: {e}")))?;
        TransportMetrics::add(&metrics.connections_accepted, 1);
        let mut hello = HelloFrame::current();
        if config.cluster_key.is_some() {
            hello = hello.authenticated();
        }
        send_frame_blocking(
            &mut stream,
            &WireCodec::Binary.encode_frame(&hello),
            &metrics,
        )?;
        let (kind, header, mut payload) =
            read_frame_blocking_raw(&mut stream, MAX_FRAME, &metrics)?;
        if kind != FrameKind::HelloReply {
            return Err(ServiceError::transport(format!(
                "expected a HelloReply frame, got {kind:?}"
            )));
        }
        if let Some(key) = &config.cluster_key {
            // An accepted reply from a keyed server is itself sealed; the
            // only *plain* reply a keyed client accepts is a structured
            // rejection — that is how a key mismatch stays a legible error
            // instead of a MAC failure.
            if key.open_split(&header, &mut payload).is_err() {
                return match WireCodec::Binary.decode_payload::<HelloReply>(&payload) {
                    Ok(HelloReply::Rejected(error)) => Err(error),
                    _ => Err(ServiceError::unauthenticated(
                        "server did not authenticate its hello reply; it holds no (or a \
                         different) cluster key",
                    )),
                };
            }
        }
        let (version, grid, prior, auth) =
            match WireCodec::Binary.decode_payload::<HelloReply>(&payload)? {
                HelloReply::Accepted {
                    version,
                    grid,
                    prior,
                    auth,
                } => (version, grid, prior, auth),
                HelloReply::Rejected(error) => return Err(error),
            };
        match (&config.cluster_key, auth.as_deref()) {
            (Some(_), Some(AUTH_SCHEME)) | (None, None) => {}
            (Some(_), _) => {
                return Err(ServiceError::unauthenticated(
                    "server accepted without confirming hmac-sha256 frame authentication",
                ))
            }
            (None, Some(scheme)) => {
                return Err(ServiceError::unauthenticated(format!(
                    "server confirmed {scheme:?} frame authentication this client did not \
                     announce"
                )))
            }
        }
        TransportMetrics::add(&metrics.binary_connections, 1);
        let conn = Self {
            stream,
            auth: config.cluster_key.clone(),
            metrics,
        };
        Ok((
            conn,
            ServerHello {
                version,
                grid,
                prior,
            },
        ))
    }

    /// Append the MAC trailer when the connection is keyed.
    pub(crate) fn seal(&self, frame: Vec<u8>) -> Vec<u8> {
        match &self.auth {
            Some(key) => key.seal(frame),
            None => frame,
        }
    }

    /// Blocking: write one already-sealed frame.
    pub(crate) fn send_sealed(&mut self, frame: &[u8]) -> Result<(), ServiceError> {
        send_frame_blocking(&mut self.stream, frame, &self.metrics)
    }

    /// Blocking: receive one frame (honouring the read timeout), verifying
    /// and stripping its MAC trailer when keyed.
    pub(crate) fn recv(&mut self) -> Result<(FrameKind, Vec<u8>), ServiceError> {
        let (kind, header, mut payload) =
            read_frame_blocking_raw(&mut self.stream, MAX_FRAME, &self.metrics)?;
        if let Some(key) = &self.auth {
            key.open_split(&header, &mut payload).map_err(|e| {
                ServiceError::unauthenticated(format!("peer frame failed authentication: {e}"))
            })?;
        }
        Ok((kind, payload))
    }

    /// Tear the socket down in both directions (fault injection).
    fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Hand the connection to a reactor task: the socket goes nonblocking
    /// and keeps the agreed authentication, and inbound frames are bounded
    /// at `max_payload` bytes.
    pub(crate) fn into_frame_stream(self, max_payload: usize) -> Result<FrameStream, ServiceError> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| ServiceError::transport(format!("setting the stream nonblocking: {e}")))?;
        Ok(FrameStream::new(
            self.stream,
            self.auth,
            max_payload,
            self.metrics,
        ))
    }
}

/// Send one frame over a blocking stream.
fn send_frame_blocking(
    stream: &mut TcpStream,
    frame: &[u8],
    metrics: &TransportMetrics,
) -> Result<(), ServiceError> {
    stream
        .write_all(frame)
        .map_err(|e| ServiceError::transport(format!("send failed: {e}")))?;
    TransportMetrics::add(&metrics.frames_out, 1);
    TransportMetrics::add(&metrics.bytes_out, frame.len() as u64);
    Ok(())
}

/// Receive one frame from a blocking stream, returning the raw header
/// alongside the payload so callers can defer MAC verification (the hello
/// exchange must tolerate a plain structured rejection from a server that
/// does not share its key).  The payload is read directly into its final
/// buffer — no staging copy.
fn read_frame_blocking_raw(
    stream: &mut TcpStream,
    max_payload: usize,
    metrics: &TransportMetrics,
) -> Result<(FrameKind, [u8; FRAME_HEADER_LEN], Vec<u8>), ServiceError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact_mapped(stream, &mut header)?;
    let (kind, len) = parse_frame_header(&header, max_payload)?;
    let mut payload = vec![0u8; len];
    read_exact_mapped(stream, &mut payload)?;
    TransportMetrics::add(&metrics.frames_in, 1);
    TransportMetrics::add(&metrics.bytes_in, (FRAME_HEADER_LEN + len) as u64);
    Ok((kind, header, payload))
}

fn read_exact_mapped(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ServiceError> {
    stream.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ServiceError::transport("timed out waiting for a frame")
        }
        io::ErrorKind::UnexpectedEof => {
            ServiceError::transport("connection closed mid-frame (truncated frame)")
        }
        _ => ServiceError::transport(format!("receive failed: {e}")),
    })
}

/// Client side of the framed envelope transport: a [`MatrixService`] whose
/// requests cross a process boundary over TCP.
///
/// Connecting performs the hello exchange, from which the transport learns the
/// server's protocol version, grid configuration (rebuilt into a local
/// [`LocationTree`]) and public prior — so a [`crate::CorgiClient`] can run
/// against a `TcpTransport` exactly as it does against an in-process stack.
///
/// The connection is a `Mutex`-serialized request/response channel: one
/// request is in flight at a time per transport (clone-free sharing across
/// threads works, callers just serialize).  Pipelining is a property of the
/// *server*; concurrent client load is modelled with multiple transports, as
/// in the loopback tests and benches.
pub struct TcpTransport {
    conn: Mutex<ClientConn>,
    tree: Arc<LocationTree>,
    prior: Arc<PriorDistribution>,
    server_version: ProtocolVersion,
    next_request_id: AtomicU64,
    metrics: Arc<TransportMetrics>,
}

/// Connection state behind the transport's mutex.
struct ClientConn {
    conn: Conn,
    /// Set after a transport-level failure (timeout, truncated or
    /// uncorrelated frame) or an undecodable reply: the request/response
    /// stream may be desynchronized — a late response could be mistaken for
    /// the next call's reply — so every further call fails fast until the
    /// caller reconnects.
    poisoned: bool,
    /// Fault injection hook ([`ClientConfig::fault_plan`]); `None` in
    /// production.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ClientConn {
    fn poison(&mut self) {
        if !self.poisoned {
            self.poisoned = true;
            TransportMetrics::add(&self.conn.metrics.poisoned_connections, 1);
        }
    }

    /// One request/response exchange.  Any transport-level failure — send
    /// failure, timeout, truncated frame — poisons the connection: a reply to
    /// this call may still arrive later and would desynchronize every
    /// subsequent exchange.
    fn exchange(&mut self, frame: Vec<u8>) -> Result<(FrameKind, Vec<u8>), ServiceError> {
        if self.poisoned {
            return Err(ServiceError::transport(
                "connection poisoned by an earlier stream desynchronization; reconnect",
            ));
        }
        let mut frame = self.conn.seal(frame);
        if let Some(plan) = &self.fault_plan {
            match plan.check(FaultSite::ClientSend) {
                None => {}
                Some(FaultAction::Delay(pause)) => std::thread::sleep(pause),
                // The send never happens; the receive path then times out (or
                // hits the closed socket) and poisons the connection exactly
                // as a real loss would.
                Some(FaultAction::DropFrame) => {
                    let result = self.conn.recv();
                    self.poison();
                    return result;
                }
                Some(FaultAction::CloseConnection) => self.conn.shutdown(),
                Some(FaultAction::CorruptMac) => {
                    if let Some(last) = frame.last_mut() {
                        *last ^= 0xff;
                    }
                }
            }
        }
        let result = self
            .conn
            .send_sealed(&frame)
            .and_then(|()| self.conn.recv());
        if result.is_err() {
            self.poison();
        }
        result
    }
}

impl TcpTransport {
    /// Connect with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect, perform the version handshake and mirror the server's tree.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ServiceError> {
        let metrics = Arc::new(TransportMetrics::default());
        let (conn, hello) = Conn::open(addr, &config, Arc::clone(&metrics))?;
        let grid = HexGrid::new(hello.grid).map_err(|e| {
            ServiceError::transport(format!("server sent an invalid grid config: {e}"))
        })?;
        Ok(Self {
            conn: Mutex::new(ClientConn {
                conn,
                poisoned: false,
                fault_plan: config.fault_plan,
            }),
            tree: Arc::new(LocationTree::new(grid)),
            prior: Arc::new(hello.prior),
            server_version: hello.version,
            next_request_id: AtomicU64::new(1),
            metrics,
        })
    }

    /// Protocol version the server announced in its hello reply.
    pub fn server_version(&self) -> ProtocolVersion {
        self.server_version
    }

    /// Payload codec of this connection: [`WireCodec::Binary`], the only
    /// codec since protocol 2.0 (kept for callers that print it).
    pub fn codec(&self) -> WireCodec {
        WireCodec::Binary
    }

    /// A point-in-time snapshot of this connection's transport counters.
    pub fn stats(&self) -> TransportStats {
        self.metrics.snapshot()
    }

    fn lock(&self) -> MutexGuard<'_, ClientConn> {
        self.conn.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One exchange whose reply is an `R`.  Anything else — an undecodable
    /// reply (a stream desync), a `Response` frame (the server refused at the
    /// transport level and is closing) or another kind — is an error that
    /// poisons the connection.
    fn call<M: WireMessage, R: WireMessage>(&self, message: &M) -> Result<R, ServiceError> {
        let frame = WireCodec::Binary.encode_frame(message);
        let mut conn = self.lock();
        let (kind, payload) = conn.exchange(frame)?;
        let reply = if kind == R::KIND {
            WireCodec::Binary.decode_payload(&payload)
        } else if kind == FrameKind::Response {
            WireCodec::Binary
                .decode_payload::<ResponseEnvelope>(&payload)
                .and_then(|envelope| {
                    Err(envelope
                        .into_result()
                        .err()
                        .unwrap_or_else(|| ServiceError::transport("unexpected forest reply")))
                })
        } else {
            Err(ServiceError::transport(format!(
                "expected a {:?} frame, got {kind:?}",
                R::KIND
            )))
        };
        if reply.is_err() {
            conn.poison();
        }
        reply
    }

    /// Ask the server to precompute its cache over a `(privacy_level, δ)`
    /// grid; blocks until the server reports back.
    pub fn warm(&self, plan: &WarmRequest) -> Result<WarmReport, ServiceError> {
        self.call(plan)
    }

    /// Fetch the server's runtime counters over the wire (protocol 1.4):
    /// transport, cache and cluster snapshots in one [`StatsReport`].
    pub fn server_stats(&self) -> Result<StatsReport, ServiceError> {
        self.call(&StatsRequest {})
    }

    /// One liveness round-trip (protocol 1.5): send a nonce, verify the
    /// server echoes it.  Errors are transport failures; a mismatched nonce
    /// is a desynchronized stream and poisons the connection like one.
    pub fn ping(&self) -> Result<(), ServiceError> {
        let ping = Ping::fresh();
        let pong: Pong = self.call(&ping)?;
        if pong.nonce != ping.nonce {
            self.lock().poison();
            return Err(ServiceError::transport(
                "pong echoed a different nonce; stream desynchronized",
            ));
        }
        Ok(())
    }

    /// Fetch the server's resident-cache digest (protocol 1.5): the
    /// generation-tagged summary of `(privacy_level, δ)` keys it could serve
    /// to a pull, bounded by the server's warm-key limit.
    pub fn cache_digest(&self) -> Result<DigestReply, ServiceError> {
        self.call(&DigestRequest { pull: None })
    }

    /// Pull one resident forest from the server's cache (protocol 1.5).
    /// `Ok(None)` means the key was not resident (e.g. evicted since the
    /// digest was taken) — the server never solves to answer a pull.  A
    /// forest for any other key is refused with a
    /// [`Transport`](crate::ServiceErrorKind::Transport) error.
    pub fn pull_resident(
        &self,
        key: MatrixRequest,
    ) -> Result<Option<Arc<PrivacyForestResponse>>, ServiceError> {
        let reply: DigestReply = self.call(&DigestRequest { pull: Some(key) })?;
        match reply.forest {
            Some(forest) if forest.request != key => Err(ServiceError::transport(format!(
                "pull of ({}, {}) answered with the forest for ({}, {})",
                key.privacy_level, key.delta, forest.request.privacy_level, forest.request.delta
            ))),
            forest => Ok(forest),
        }
    }
}

impl MatrixService for TcpTransport {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let envelope = RequestEnvelope::new(request_id, request);
        let frame = WireCodec::Binary.encode_frame(&envelope);
        let mut conn = self.lock();
        let (kind, payload) = conn.exchange(frame)?;
        if kind != FrameKind::Response {
            conn.poison();
            return Err(ServiceError::transport(format!(
                "expected a Response frame, got {kind:?}"
            )));
        }
        let reply: ResponseEnvelope = match WireCodec::Binary.decode_payload(&payload) {
            Ok(reply) => reply,
            Err(e) => {
                // Undecodable response: poison like any other stream
                // desynchronization.
                conn.poison();
                return Err(e);
            }
        };
        if reply.request_id != request_id {
            // Either a transport-level error (id 0, server closing) or a
            // desynchronized stream; both poison the connection.  Surface the
            // carried error if there is one.
            conn.poison();
            return match reply.into_result() {
                Err(error) => Err(error),
                Ok(_) => Err(ServiceError::transport(
                    "response correlates to a different request",
                )),
            };
        }
        reply.into_result()
    }

    fn tree(&self) -> Arc<LocationTree> {
        Arc::clone(&self.tree)
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        Arc::clone(&self.prior)
    }
}
