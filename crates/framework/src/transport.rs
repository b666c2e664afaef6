//! Cross-process envelope transport: length-prefixed frames over TCP, served
//! by a non-blocking reactor on the hand-rolled executor.  This module holds
//! the server.  The frame format, the hello payloads and the nonblocking
//! frame stream that both the server's connections and the peer links run
//! on live in `frame.rs`; the client side — one connection type behind
//! [`TcpTransport`], the shard router and the peer links — lives in
//! `conn.rs`.  Both are re-exported here.
//!
//! # Wire format
//!
//! Every message is one *frame*:
//!
//! ```text
//! +----------+---------+----------------+------------------------+
//! | magic 2B | kind 1B | length 4B (BE) | payload (binary codec) |
//! +----------+---------+----------------+------------------------+
//! ```
//!
//! The payload of a `Request`/`Response` frame is the *versioned envelope* of
//! [`crate::messages`] unchanged — the transport frames the existing protocol
//! rather than inventing a second one.  Every payload, the hello exchange
//! included, is the binary encoding of [`crate::codec`] ([`WireCodec`]).
//! Frames are built in a single buffer — the 7 header bytes are reserved up
//! front and the length patched in place once the payload is serialized, so
//! there is no encode-then-copy step — and the reactor decodes payloads
//! borrowed from the connection's read buffer.
//!
//! `Hello`/`HelloReply` frames agree on the [`ProtocolVersion`] (and on
//! frame authentication, below) on connect.  A major-version mismatch is
//! refused with a structured [`ServiceError`], not a decode failure: the
//! hello opens with its version in every major, and the JSON hello of a 1.x
//! peer is recognised and refused as an unsupported version.  A hello that
//! is truncated, carries trailing bytes or claims an impossible length is
//! refused with a [`ServiceErrorKind::Transport`] error.  Either way the
//! server closes after the rejection.  The accepted reply carries the grid
//! configuration and public prior so a remote client can rebuild the
//! location tree without an out-of-band channel (step ② of Fig. 1).
//! `Warm`/`WarmReply` frames carry the [`WarmRequest`] /
//! [`WarmReport`](crate::warm::WarmReport) of [`mod@crate::warm`].
//!
//! Protocol 1.4 adds the cluster tier: `WarmPush` frames replicate freshly
//! solved cache entries between peer servers, `Stats`/`StatsReply` expose a
//! server's runtime counters over the wire, and the hello exchange
//! additionally agrees on keyed HMAC frame authentication.  When both sides
//! hold the cluster key ([`crate::auth`]), every post-handshake frame carries
//! a 16-byte MAC trailer (counted in the header length) and a tampered,
//! unauthenticated or wrongly-keyed frame is rejected with a structured
//! [`ServiceErrorKind::Unauthenticated`] error before the connection drains.
//! A rejected hello travels without a MAC so a key mismatch is always a
//! *legible* rejection.  See [`crate::cluster`] for the shard router
//! and peer-replication layer built on these frames.
//!
//! Protocol 1.5 adds the resilience layer: `Ping`/`Pong` frames carry
//! liveness probes (a nonce echoed back, sealed like every keyed frame) for
//! the peer-health state machine of [`crate::cluster`], and
//! `Digest`/`DigestReply` frames carry the anti-entropy re-warm exchange — a
//! restarted server asks each peer for a bounded summary of its resident
//! `(privacy_level, δ)` cache keys and pulls the forests it is missing
//! ([`TcpServer::rewarm_from_peers`]), so a rejoin costs network transfer
//! instead of repeating the LP solves.  For deterministic
//! failure testing, an optional [`FaultPlan`] threads through the send and
//! connect paths (see [`crate::fault`] and `tests/chaos.rs`).
//!
//! Malformed input never hangs or kills the server: a bad magic, an unknown
//! frame kind, an oversized length prefix or an unparsable payload (JSON
//! bytes after the hello included) each produce a `Response` frame carrying a
//! [`ServiceErrorKind::Transport`] error (request id 0, since no request was
//! decodable) after which the connection drains and closes; a half-sent frame
//! is bounded by the handshake/read deadline.  Connection-level behaviour is
//! observable as a [`TransportStats`] snapshot ([`TcpServer::stats`] /
//! [`TcpTransport::stats`]), beside the cache's [`CacheStats`].
//!
//! # Server architecture
//!
//! ```text
//! client sockets ──► reactor shard 0:  Executor::run        ("corgi-reactor-0")
//!                      ├─ AcceptTask   nonblocking accept ──round-robin──┐
//!                      └─ ConnectionTask ×N read frames → decode envelopes
//!                             │  ▲                      miss │           │
//!                             │  └── oneshot completions ◄── ▼           │
//!                             │      (wake the task)   dispatch ThreadPool
//!                             │                        service.handle_envelope
//!                             └─ bounded write queue ◄── resident hit:   │
//!                                  cache().encoded_hit body + head       │
//!                    reactor shard 1..S-1: Executor::run  ◄──────────────┘
//!                      └─ ConnectionTask ×N   (same loop, own poll set
//!                                              and TransportStats shard)
//! ```
//!
//! Accepted connections are sharded across
//! [`TransportConfig::reactor_shards`] reactor threads: the single listener
//! lives on shard 0, whose `AcceptTask` hands each accepted socket to the
//! next shard round-robin.  Every shard runs its own executor (and, on the
//! epoll backend, its own kernel poll set — see [`ReactorBackend`]) and
//! accounts its connections in its own [`TransportStats`];
//! [`TcpServer::stats`] and the wire `Stats` frame report the aggregate,
//! [`TcpServer::shard_stats`] the per-shard breakdown.
//!
//! A reactor thread never solves and never encodes a forest.  A request whose
//! key is resident is answered inline: the stack's [`ForestCache`], reached
//! through [`MatrixService::cache`], counts the hit and hands back the forest
//! body it encoded once ([`ForestCache::encoded_hit`]), and the
//! reply is that body behind a per-request envelope head
//! ([`WireCodec::encode_forest_reply`]), byte-identical to the dispatch
//! path's frame and queued through the same sealing and fault-injection
//! choke point.  Every other envelope (a miss, or an incompatible version)
//! is handed to the dispatch [`ThreadPool`] (shared by all shards, so
//! admission control stays server-wide), where the service stack (cache →
//! generator → LP solver pool) runs, and the encoded response re-enters the
//! event loop through a [`oneshot`] future.  Responses are therefore
//! delivered in *completion* order, correlated by `request_id` — pipelining
//! N requests on one connection keeps N solves in flight, and a hit
//! pipelined behind a miss overtakes it.  Per-connection backpressure is a
//! bounded write queue plus an in-flight cap: a connection at either bound
//! stops being read until it drains.
//!
//! # Admission control
//!
//! Per-connection backpressure cannot protect the server from *many*
//! connections each offering a modest rate: every queue stays under its local
//! bound while the shared dispatch pool's backlog — and therefore every
//! queued request's latency — grows without limit.  The reactor therefore
//! applies admission control at the dispatch boundary: a `Request` frame that
//! arrives while the pool backlog ([`ThreadPool::backlog`]) is at or past
//! [`TransportConfig::max_dispatch_backlog`] is *shed* — answered immediately
//! with a structured [`ServiceErrorKind::Overloaded`] error echoing the
//! request's own id — instead of queued.  Shedding is not a protocol failure:
//! the connection stays open and synchronized, the client sees a retryable
//! error (see [`ServiceError::is_retryable`]), and the requests the server
//! *does* admit complete at bounded latency.  Resident hits are never shed:
//! they are answered on the reactor and add nothing to the backlog, so a
//! pool pinned by cold solves still serves every cached key.  `Warm` frames
//! are exempt too: their key count is already bounded (1024 keys per
//! frame) and warming is an explicit operator action, not open-loop
//! traffic.  Shed and admitted counts are visible as
//! [`TransportStats::requests_shed`] /
//! [`TransportStats::requests_admitted`], and the read-side memory bound as
//! [`TransportStats::read_buffer_high_water`].
//!
//! [`ProtocolVersion`]: crate::messages::ProtocolVersion
//! [`ServiceErrorKind::Transport`]: crate::messages::ServiceErrorKind::Transport
//! [`oneshot`]: crate::executor::oneshot
//! [`CacheStats`]: crate::CacheStats

pub use crate::conn::{ClientConfig, TcpTransport};
pub use crate::frame::{
    encode_frame, peek_frame, try_decode_frame, FrameError, FrameKind, HelloFrame, HelloReply,
    FRAME_HEADER_LEN, FRAME_MAGIC,
};

use crate::auth::{ClusterKey, AUTH_SCHEME};
use crate::cluster::{
    ClusterMetrics, ClusterStats, Ping, Pong, Replicator, StatsReport, StatsRequest,
};
use crate::codec::WireMessage;
use crate::executor::{oneshot, Executor, Handle, ReactorBackend, Sleep};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::frame::{sock_fd, FrameStream};
use crate::messages::WireCodec;
use crate::messages::{
    RequestEnvelope, ResponseEnvelope, ServiceError, ServiceErrorKind, PROTOCOL_VERSION,
};
use crate::pool::ThreadPool;
use crate::service::{ForestCache, MatrixService, WarmInsertOutcome};
use crate::warm::{
    warm, DigestReply, DigestRequest, RewarmReport, WarmFailure, WarmPush, WarmRequest,
};
use serde::{Deserialize, Serialize};
use std::future::Future;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Reactor tick: how often the [`Tick`](ReactorBackend::Tick) backend
/// re-polls sockets parked on `WouldBlock`.  On epoll it only bounds the wait
/// while a future sits in the executor's `park_io` set.
const IO_POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Encoded response frames a connection may queue before the reactor stops
/// reading from it (write-side backpressure).
const WRITE_QUEUE_DEPTH: usize = 64;

/// Decoded requests a connection may have in flight on the dispatch pool
/// before the reactor stops reading from it (compute backpressure).
const MAX_INFLIGHT_PER_CONNECTION: usize = 128;

/// Largest `(privacy_level, δ)` key count accepted in one `Warm` frame, and
/// the length a digest reply is truncated to.  Each key is a full forest
/// generation, so an unbounded plan would let a single small frame pin the
/// dispatch pool for hours.
const MAX_WARM_KEYS: usize = 1024;

/// Tunables of the serving reactor and its transport.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Largest accepted inbound frame payload, in bytes.  Requests are tiny;
    /// the default (64 KiB) rejects runaway length prefixes outright.
    pub max_inbound_frame: usize,
    /// Threads of the dispatch pool running the service stack.  This bounds
    /// server-wide concurrent generations; the LP fan-out below it is sized by
    /// [`crate::ServerConfig::worker_threads`].
    pub dispatch_threads: usize,
    /// Server-wide admission bound: a `Request` frame arriving while the
    /// dispatch pool's backlog (queued + running jobs, across *all*
    /// connections) is at or past this count is shed with a structured
    /// [`ServiceErrorKind::Overloaded`] reply instead of queued.  This is the
    /// knob that turns "queue grows without limit under overload" into
    /// "bounded latency for admitted requests, fast retryable errors for the
    /// rest".  The default (64) keeps worst-case queueing delay at
    /// `64 / dispatch_threads` service times.
    pub max_dispatch_backlog: usize,
    /// How the reactor threads block between bursts of work.  The default
    /// honours `CORGI_REACTOR_BACKEND` and requests
    /// [`Epoll`](ReactorBackend::Epoll), which degrades to
    /// [`Tick`](ReactorBackend::Tick) (a 500 µs re-poll tick) wherever the
    /// readiness syscalls are unavailable (non-Linux, seccomp);
    /// [`TcpServer::backend`] reports what actually runs.
    pub reactor_backend: ReactorBackend,
    /// Reactor threads accepted connections are sharded across, round-robin.
    /// `0` (the default) sizes to available parallelism, capped at 8; any
    /// other value is used as-is (minimum 1).
    pub reactor_shards: usize,
    /// How long a fresh connection may take to complete the hello exchange
    /// (also bounds how long a truncated frame can sit half-read).
    pub handshake_timeout: Duration,
    /// Read-idle deadline for established connections: a connection that
    /// produces no complete inbound frame for this long — with nothing in
    /// flight and nothing queued to write — is answered with a structured
    /// [`Transport`](ServiceErrorKind::Transport) error and drained,
    /// reclaiming its buffers and fd from connected-but-mute clients.  The
    /// deadline re-arms on every consumed frame.  `None` (the default) keeps
    /// the pre-1.5 behaviour: an idle connection lives until EOF.
    pub read_idle_timeout: Option<Duration>,
    /// Warming plan solved on the dispatch pool as soon as the server starts.
    pub warm_on_start: Option<WarmRequest>,
    /// Never read: every connection speaks the binary codec since protocol
    /// 2.0.  Kept so configs that still set it compile.
    #[deprecated(note = "protocol 2.0 is binary-only; this field is never read")]
    pub codecs: Vec<WireCodec>,
    /// Cluster key for keyed frame authentication (protocol 1.4).  When set,
    /// every client must announce `hmac-sha256` in its hello and every
    /// post-handshake frame in both directions carries a MAC trailer;
    /// unkeyed hellos and tamper-failed frames are rejected with a
    /// structured [`ServiceErrorKind::Unauthenticated`] error.  The default
    /// reads `CORGI_CLUSTER_KEY` (see [`ClusterKey::from_env`]).
    pub cluster_key: Option<ClusterKey>,
    /// Peer-replication engine (protocol 1.4): when set, [`TcpServer::bind`]
    /// claims it and spawns one replication task on shard 0's reactor, so
    /// keys offered by a [`crate::cluster::ReplicatingService`] stream to the
    /// configured peers as `WarmPush` frames.  A replicator drives one live
    /// server at a time: binding one that another server holds fails with
    /// [`InvalidInput`](io::ErrorKind::InvalidInput), and
    /// [`TcpServer::shutdown`] releases it.  Build one with
    /// [`Replicator::new`], wrap the generator, and add peers (before or
    /// after bind) with [`Replicator::add_peer`].
    pub replication: Option<Arc<Replicator>>,
    /// Deterministic fault injection for the server's send path (protocol
    /// 1.5 chaos testing; see [`crate::fault`]).  `None` — the default, and
    /// the only sane production value — costs one pointer check per queued
    /// frame.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for TransportConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            max_inbound_frame: 64 * 1024,
            dispatch_threads: 4,
            max_dispatch_backlog: 64,
            reactor_backend: ReactorBackend::from_env(),
            reactor_shards: 0,
            handshake_timeout: Duration::from_secs(5),
            read_idle_timeout: None,
            warm_on_start: None,
            codecs: Vec::new(),
            cluster_key: ClusterKey::from_env(),
            replication: None,
            fault_plan: None,
        }
    }
}

impl TransportConfig {
    /// The actual shard count: `reactor_shards` as given, or — when 0 —
    /// available parallelism capped at 8 (beyond that the shared dispatch
    /// pool, not the reactors, is the bottleneck).
    pub fn resolved_shards(&self) -> usize {
        if self.reactor_shards > 0 {
            self.reactor_shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        }
    }
}

/// A point-in-time snapshot of a transport endpoint's connection-level
/// counters.
///
/// [`TcpServer::stats`] fills every field; [`TcpTransport::stats`] describes
/// its single client connection (the accept/handshake counters count that
/// one connection, and `poisoned_connections` is 0 or 1).  Serializable since
/// protocol 1.4, where it travels inside a [`StatsReport`] frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Connections accepted (server) or established (client).
    pub connections_accepted: u64,
    /// Connections that have fully closed.
    pub connections_closed: u64,
    /// Connections that completed the hello exchange (all of them speak the
    /// binary codec).
    pub binary_connections: u64,
    /// Complete frames decoded from peers.
    pub frames_in: u64,
    /// Frames queued for (client: written to) the wire.
    pub frames_out: u64,
    /// Payload + header bytes read off sockets.
    pub bytes_in: u64,
    /// Payload + header bytes written to sockets.
    pub bytes_out: u64,
    /// Times a connection hit a backpressure bound (write queue or in-flight
    /// cap) and reading from it was suspended until it drained.
    pub backpressure_stalls: u64,
    /// Requests accepted past admission control: resident hits answered on
    /// the reactor plus requests queued on the dispatch pool (server only).
    pub requests_admitted: u64,
    /// Requests shed by admission control with an
    /// [`ServiceErrorKind::Overloaded`] reply because the dispatch backlog was
    /// at [`TransportConfig::max_dispatch_backlog`] (server only).
    pub requests_shed: u64,
    /// Largest number of bytes any single connection's read buffer has held —
    /// the observable face of the inbound memory bound (one maximal frame
    /// plus a read chunk of slack per connection, never more).
    pub read_buffer_high_water: u64,
    /// Transport-level protocol failures (malformed frames, stream desyncs,
    /// oversized payloads) answered with a structured error.
    pub transport_errors: u64,
    /// Client connections poisoned by a stream desynchronization (every
    /// further call fails fast until the caller reconnects).
    pub poisoned_connections: u64,
}

impl TransportStats {
    /// Fold another snapshot into this one: counters add, the read-buffer
    /// high-water mark takes the maximum.  This is how per-shard snapshots
    /// aggregate into the server-wide view of [`TcpServer::stats`] and the
    /// wire `Stats` frame, with no wire fields of its own.
    pub fn merge(&mut self, other: &TransportStats) {
        self.connections_accepted += other.connections_accepted;
        self.connections_closed += other.connections_closed;
        self.binary_connections += other.binary_connections;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.backpressure_stalls += other.backpressure_stalls;
        self.requests_admitted += other.requests_admitted;
        self.requests_shed += other.requests_shed;
        self.read_buffer_high_water = self
            .read_buffer_high_water
            .max(other.read_buffer_high_water);
        self.transport_errors += other.transport_errors;
        self.poisoned_connections += other.poisoned_connections;
    }
}

/// Aggregate per-shard metric snapshots into one server-wide snapshot.
fn aggregate_stats(shards: &[Arc<TransportMetrics>]) -> TransportStats {
    let mut total = TransportStats::default();
    for shard in shards {
        total.merge(&shard.snapshot());
    }
    total
}

/// Shared atomic counters behind [`TransportStats`].
#[derive(Default)]
pub(crate) struct TransportMetrics {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) binary_connections: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) backpressure_stalls: AtomicU64,
    pub(crate) requests_admitted: AtomicU64,
    pub(crate) requests_shed: AtomicU64,
    pub(crate) read_buffer_high_water: AtomicU64,
    pub(crate) transport_errors: AtomicU64,
    pub(crate) poisoned_connections: AtomicU64,
}

impl TransportMetrics {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn raise_high_water(&self, bytes: u64) {
        self.read_buffer_high_water
            .fetch_max(bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            binary_connections: self.binary_connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            read_buffer_high_water: self.read_buffer_high_water.load(Ordering::Relaxed),
            transport_errors: self.transport_errors.load(Ordering::Relaxed),
            poisoned_connections: self.poisoned_connections.load(Ordering::Relaxed),
        }
    }
}

/// A running CORGI server: reactor shard threads serving framed-envelope TCP
/// connections on behalf of an `Arc<dyn MatrixService>` stack.
///
/// ```no_run
/// use corgi_framework::{
///     CachingService, ForestGenerator, MatrixService, ServerConfig, TcpServer, TcpTransport,
///     TransportConfig,
/// };
/// use corgi_core::LocationTree;
/// use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
/// use corgi_hexgrid::{HexGrid, HexGridConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = HexGrid::new(HexGridConfig::san_francisco())?;
/// let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
/// let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
/// let service: Arc<dyn MatrixService> = Arc::new(CachingService::with_defaults(
///     ForestGenerator::new(LocationTree::new(grid), prior, ServerConfig::default()),
/// ));
/// let server = TcpServer::bind("127.0.0.1:0", service, TransportConfig::default())?;
/// let client = TcpTransport::connect(server.local_addr())?;
/// # Ok(())
/// # }
/// ```
pub struct TcpServer {
    local_addr: SocketAddr,
    shards: Vec<ShardRuntime>,
    /// Per-shard metric handles in shard order, shared with the connection
    /// tasks so the wire `Stats` frame can report the aggregate.
    shard_metrics: Arc<[Arc<TransportMetrics>]>,
    backend: ReactorBackend,
    cluster: Arc<ClusterMetrics>,
    replication: Option<Arc<Replicator>>,
    /// The served stack, retained so [`TcpServer::rewarm_from_peers`] can
    /// insert pulled forests into the local cache.
    service: Arc<dyn MatrixService>,
}

/// One reactor shard: its executor handle and thread.
struct ShardRuntime {
    handle: Handle,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Bind a listener and start the reactor shard threads
    /// (`corgi-reactor-0` … `corgi-reactor-{S-1}`; the listener lives on
    /// shard 0, which round-robins accepted connections across all shards).
    ///
    /// Returns as soon as the socket is listening; any
    /// [`TransportConfig::warm_on_start`] plan runs concurrently on the
    /// dispatch pool while connections are already being accepted.  With a
    /// [`TransportConfig::replication`], shard 0 also runs the server's one
    /// replication task; binding fails with
    /// [`InvalidInput`](io::ErrorKind::InvalidInput) while another live
    /// server holds that replicator.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<dyn MatrixService>,
        config: TransportConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Claimed only once the listener is up, so a failed bind leaves the
        // replicator free for a retry; from here on, dropping the half-built
        // server below releases it.
        let replication = config.replication.clone();
        if let Some(replicator) = &replication {
            replicator.claim()?;
        }
        let shard_count = config.resolved_shards();
        let executors: Vec<Executor> = (0..shard_count)
            .map(|_| Executor::with_backend(config.reactor_backend, IO_POLL_INTERVAL))
            .collect();
        // All shards resolve identically (the probe is cached), so shard 0
        // speaks for the server.
        let backend = executors[0].backend();
        let dispatch = Arc::new(ThreadPool::new(config.dispatch_threads.max(1)));
        if let Some(plan) = config.warm_on_start.clone() {
            let service = Arc::clone(&service);
            dispatch.execute(move || {
                let _ = warm(service.as_ref(), &plan);
            });
        }
        let shard_metrics: Arc<[Arc<TransportMetrics>]> = (0..shard_count)
            .map(|_| Arc::new(TransportMetrics::default()))
            .collect();
        let cluster = Arc::new(ClusterMetrics::default());
        if let Some(replicator) = &replication {
            crate::cluster::spawn_replication(
                &executors[0].handle(),
                Arc::clone(replicator),
                Arc::clone(&dispatch),
                Arc::clone(&cluster),
            );
        }
        let targets: Vec<ShardTarget> = executors
            .iter()
            .zip(shard_metrics.iter())
            .map(|(executor, metrics)| ShardTarget {
                handle: executor.handle(),
                metrics: Arc::clone(metrics),
            })
            .collect();
        executors[0].handle().spawn(AcceptTask {
            listener,
            handle: executors[0].handle(),
            targets,
            next: 0,
            service: Arc::clone(&service),
            dispatch,
            config: Arc::new(config),
            shard_metrics: Arc::clone(&shard_metrics),
            cluster: Arc::clone(&cluster),
        });
        let mut server = Self {
            local_addr,
            shards: Vec::with_capacity(shard_count),
            shard_metrics,
            backend,
            cluster,
            replication,
            service,
        };
        for (index, executor) in executors.into_iter().enumerate() {
            let handle = executor.handle();
            // On failure `server` drops: the shards already running stop and
            // the replicator's claim is released.
            let reactor = std::thread::Builder::new()
                .name(format!("corgi-reactor-{index}"))
                .spawn(move || executor.run())?;
            server.shards.push(ShardRuntime {
                handle,
                reactor: Some(reactor),
            });
        }
        Ok(server)
    }

    /// The bound address (useful with port 0 in tests and examples).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time snapshot of the server's connection-level counters,
    /// aggregated across every reactor shard.
    pub fn stats(&self) -> TransportStats {
        aggregate_stats(&self.shard_metrics)
    }

    /// Per-shard snapshots in shard order: index 0 is the shard owning the
    /// listener.  Each accepted connection is accounted (acceptance, frames,
    /// bytes, stalls) entirely in the shard it was handed to.
    pub fn shard_stats(&self) -> Vec<TransportStats> {
        self.shard_metrics
            .iter()
            .map(|metrics| metrics.snapshot())
            .collect()
    }

    /// Number of reactor shards serving connections.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The readiness backend the reactor shards actually run (after the
    /// [`ReactorBackend::resolve`] fallback).
    pub fn backend(&self) -> ReactorBackend {
        self.backend
    }

    /// A point-in-time snapshot of the server's cluster-tier counters:
    /// replication pushes received/deduplicated, auth rejections, and — when
    /// a [`Replicator`] is configured — per-peer link state.
    pub fn cluster_stats(&self) -> ClusterStats {
        cluster_snapshot(&self.cluster, self.replication.as_deref())
    }

    /// Anti-entropy re-warm (protocol 1.5): ask each peer for the digest of
    /// its resident `(privacy_level, δ)` cache keys and pull every forest
    /// this server is missing, so a restarted shard rejoins at the cost of
    /// network transfer instead of repeating the LP solves — the serving
    /// peers answer pulls from cache only, never solving either.
    ///
    /// Blocks the calling thread (one peer at a time, bounded by the
    /// client config's timeouts); run it before re-admitting traffic, or
    /// concurrently — pulled keys become hits as they land.  Unreachable
    /// peers and failed pulls are reported, not fatal: re-warming is an
    /// optimization, and every key it misses is simply solved on first
    /// request like any cold miss.  Keys the cache took count as
    /// [`ClusterStats::rewarm_keys_pulled`]; a key that became resident
    /// while its pull was in flight counts as already resident instead, and
    /// a peer answering a pull with another key's forest is a failure.  Each
    /// answered pull counts as [`ClusterStats::pushes_repaired`] on the
    /// serving peer.  A stack without a cache pulls nothing and reports one
    /// failure.
    pub fn rewarm_from_peers(&self, peers: &[String], config: ClientConfig) -> RewarmReport {
        let start = std::time::Instant::now();
        let mut report = RewarmReport {
            peers_reached: 0,
            missing: 0,
            pulled: 0,
            already_resident: 0,
            failures: Vec::new(),
            elapsed_ms: 0,
        };
        let Some(cache) = self.service.cache() else {
            report.failures.push(WarmFailure {
                privacy_level: 0,
                delta: 0,
                error: ServiceError::new(
                    ServiceErrorKind::InvalidRequest,
                    "this server's stack has no cache to re-warm",
                ),
            });
            return report;
        };
        // Keys counted once across the whole run, so a key named by several
        // peers' digests is pulled from the first and counted resident for
        // the rest.
        let mut counted: std::collections::HashSet<(u8, usize)> = cache
            .resident_keys()
            .into_iter()
            .map(|key| (key.privacy_level, key.delta))
            .collect();
        for endpoint in peers {
            let transport = match TcpTransport::connect_with(endpoint.as_str(), config.clone()) {
                Ok(transport) => transport,
                Err(error) => {
                    report.failures.push(WarmFailure {
                        privacy_level: 0,
                        delta: 0,
                        error: ServiceError::transport(format!(
                            "digest peer {endpoint} unreachable: {}",
                            error.message
                        )),
                    });
                    continue;
                }
            };
            let digest = match transport.cache_digest() {
                Ok(digest) => digest,
                Err(error) => {
                    report.failures.push(WarmFailure {
                        privacy_level: 0,
                        delta: 0,
                        error,
                    });
                    continue;
                }
            };
            report.peers_reached += 1;
            for key in digest.keys {
                if !counted.insert((key.privacy_level, key.delta)) {
                    report.already_resident += 1;
                    continue;
                }
                report.missing += 1;
                match transport.pull_resident(key) {
                    // Live traffic may have cached the key while the pull
                    // was in flight: then nothing was pulled into the cache.
                    Ok(Some(forest)) => match cache.warm_insert(forest) {
                        WarmInsertOutcome::Inserted => {
                            ClusterMetrics::count(&self.cluster.rewarm_keys_pulled);
                            report.pulled += 1;
                        }
                        WarmInsertOutcome::AlreadyResident => {
                            report.missing -= 1;
                            report.already_resident += 1;
                        }
                    },
                    // Evicted between digest and pull: not an error, just a
                    // key the run cannot repair (and a later peer may).
                    Ok(None) => {
                        counted.remove(&(key.privacy_level, key.delta));
                        report.missing -= 1;
                    }
                    Err(error) => {
                        report.failures.push(WarmFailure {
                            privacy_level: key.privacy_level,
                            delta: key.delta,
                            error,
                        });
                    }
                }
            }
        }
        report.elapsed_ms = start.elapsed().as_millis() as u64;
        report
    }

    /// Stop every reactor shard and join its thread.  Open connections are
    /// dropped; dispatch jobs already running finish first (the pool joins on
    /// drop).  A [`Replicator`] handed in via
    /// [`TransportConfig::replication`] is released: its replication task
    /// ends, closing the peer links, and it may be bound again.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for shard in &self.shards {
            shard.handle.shutdown();
        }
        for shard in &mut self.shards {
            if let Some(reactor) = shard.reactor.take() {
                let _ = reactor.join();
            }
        }
        if let Some(replicator) = self.replication.take() {
            replicator.release();
        }
    }
}

/// A server's [`ClusterStats`]: its counters plus, when it replicates, one
/// row per peer link.
fn cluster_snapshot(cluster: &ClusterMetrics, replication: Option<&Replicator>) -> ClusterStats {
    cluster.snapshot(replication.map(Replicator::peer_stats).unwrap_or_default())
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One reactor shard as seen by the accept loop: where to spawn a
/// connection's task and where it accounts its counters.
struct ShardTarget {
    handle: Handle,
    metrics: Arc<TransportMetrics>,
}

/// Nonblocking accept loop on shard 0: each accepted socket becomes a
/// ConnectionTask on the next shard, round-robin.
struct AcceptTask {
    listener: TcpListener,
    /// Shard 0's own handle (where this task runs and parks).
    handle: Handle,
    targets: Vec<ShardTarget>,
    next: usize,
    service: Arc<dyn MatrixService>,
    dispatch: Arc<ThreadPool>,
    config: Arc<TransportConfig>,
    shard_metrics: Arc<[Arc<TransportMetrics>]>,
    cluster: Arc<ClusterMetrics>,
}

impl Future for AcceptTask {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        loop {
            match this.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let target = &this.targets[this.next % this.targets.len()];
                    this.next = this.next.wrapping_add(1);
                    // Accepted-connection accounting lands in the *target*
                    // shard, like every other counter the connection touches.
                    TransportMetrics::add(&target.metrics.connections_accepted, 1);
                    let deadline = target.handle.sleep(this.config.handshake_timeout);
                    target.handle.spawn(ConnectionTask {
                        io: FrameStream::new(
                            stream,
                            None,
                            this.config.max_inbound_frame,
                            Arc::clone(&target.metrics),
                        ),
                        handle: target.handle.clone(),
                        service: Arc::clone(&this.service),
                        dispatch: Arc::clone(&this.dispatch),
                        config: Arc::clone(&this.config),
                        metrics: Arc::clone(&target.metrics),
                        shard_metrics: Arc::clone(&this.shard_metrics),
                        cluster: Arc::clone(&this.cluster),
                        pending: Vec::new(),
                        established: false,
                        draining: false,
                        eof: false,
                        stalled: false,
                        deadline,
                        idle: None,
                        last_progress: Instant::now(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    this.handle
                        .park_socket(sock_fd(&this.listener), true, false, cx.waker());
                    return Poll::Pending;
                }
                // Transient accept failures (e.g. aborted handshakes): retry
                // on the next readiness event or tick rather than killing the
                // listener.
                Err(_) => {
                    this.handle
                        .park_socket(sock_fd(&this.listener), true, false, cx.waker());
                    return Poll::Pending;
                }
            }
        }
    }
}

/// A reply being computed on the dispatch pool for one connection.
struct PendingReply {
    /// Echoed id for synthesizing an error if the job dies.
    request_id: u64,
    rx: oneshot::Receiver<Vec<u8>>,
}

/// One client connection: a manually-written state machine future.
struct ConnectionTask {
    /// The socket and its buffers; keyed from the moment the hello agrees on
    /// authentication (the accepted reply is already sealed).
    io: FrameStream,
    handle: Handle,
    service: Arc<dyn MatrixService>,
    dispatch: Arc<ThreadPool>,
    config: Arc<TransportConfig>,
    /// This connection's shard counters.
    metrics: Arc<TransportMetrics>,
    /// Every shard's counters, for the server-wide `Stats` frame aggregate.
    shard_metrics: Arc<[Arc<TransportMetrics>]>,
    cluster: Arc<ClusterMetrics>,
    pending: Vec<PendingReply>,
    /// Set once the hello exchange has been accepted.
    established: bool,
    /// Once set, the connection stops reading and closes after the queue
    /// flushes (used after transport-level errors and hello rejection).
    draining: bool,
    eof: bool,
    /// Whether the connection is currently parked on a backpressure bound
    /// (tracked so the stall counter counts edges, not polls).
    stalled: bool,
    /// Handshake deadline, re-armed by [`ConnectionTask::begin_drain`] to cap
    /// the final flush; between the hello and drain the connection lives
    /// until EOF.
    deadline: Sleep,
    /// Read-idle deadline ([`TransportConfig::read_idle_timeout`]): armed
    /// after the hello, `None` when reaping is off.  It stays armed while
    /// frames flow and is replaced only when it fires: a connection quiet
    /// for the whole timeout, with nothing in flight and nothing to write,
    /// is reaped with a structured error; any other is re-armed at
    /// `last_progress + timeout`.  One timer entry per connection, however
    /// many frames it carries.
    idle: Option<Sleep>,
    /// When the serving loop last made progress (read bytes, consumed a
    /// frame or collected a completion).
    last_progress: Instant,
}

impl Drop for ConnectionTask {
    fn drop(&mut self) {
        // The stream closes when this task drops; release its readiness
        // registration first so the shard's fd → waker map cannot retain a
        // stale entry for a recycled descriptor number.
        self.handle.deregister_socket(self.io.fd());
        TransportMetrics::add(&self.metrics.connections_closed, 1);
    }
}

impl ConnectionTask {
    /// Whether backpressure bounds forbid taking on more input right now.
    fn at_capacity(&self) -> bool {
        self.pending.len() >= MAX_INFLIGHT_PER_CONNECTION
            || self.io.queued_frames() >= WRITE_QUEUE_DEPTH
    }

    /// Queue an encoded frame for the wire — the single outbound choke
    /// point, so with authentication active every frame (including the
    /// accepted hello reply queued right after the hello) gets its MAC
    /// trailer here.
    fn queue_frame(&mut self, frame: Vec<u8>) {
        let mut frame = self.io.seal(frame);
        if let Some(plan) = &self.config.fault_plan {
            match plan.check(FaultSite::ServerSend) {
                None => {}
                // The reactor thread must never sleep: a scheduled delay
                // degrades to a drop (documented on FaultAction::Delay).
                Some(FaultAction::DropFrame) | Some(FaultAction::Delay(_)) => return,
                Some(FaultAction::CloseConnection) => {
                    self.eof = true;
                    self.draining = true;
                    self.io.clear_queue();
                    return;
                }
                Some(FaultAction::CorruptMac) => {
                    if let Some(last) = frame.last_mut() {
                        *last ^= 0xff;
                    }
                }
            }
        }
        self.io.enqueue(frame);
    }

    /// Stop reading and close once the write queue flushes, with a fresh
    /// deadline capping the drain (the handshake deadline this field
    /// previously held is long expired on an established connection).
    fn begin_drain(&mut self) {
        self.draining = true;
        self.deadline = self.handle.sleep(self.config.handshake_timeout);
    }

    fn queue_transport_error(&mut self, error: ServiceError) {
        TransportMetrics::add(&self.metrics.transport_errors, 1);
        // No request id was decodable; 0 is the documented "no request" id.
        let envelope = ResponseEnvelope::error(0, error);
        self.queue_frame(WireCodec::Binary.encode_frame(&envelope));
        self.begin_drain();
    }

    /// Answer a frame whose payload does not decode with a transport error
    /// and drain.
    fn decode_or_refuse<M: WireMessage>(&mut self, payload: &[u8]) -> Option<M> {
        match WireCodec::Binary.decode_payload(payload) {
            Ok(message) => Some(message),
            Err(e) => {
                self.queue_transport_error(e);
                None
            }
        }
    }

    /// Handle every complete frame in the read buffer, the hello first on a
    /// fresh connection.  Returns true if any frame was consumed.  Payloads
    /// are borrowed from the read buffer and consumed with one `drain` per
    /// pass (see [`FrameStream`]).
    fn process_frames(&mut self) -> bool {
        let mut pass = self.io.begin_pass();
        let mut any = false;
        while !self.draining && !self.at_capacity() {
            match self.io.next_frame(&mut pass) {
                Ok(None) => break,
                Ok(Some((kind, payload))) if self.established => self.handle_frame(kind, payload),
                Ok(Some((kind, payload))) => self.handle_hello(kind, payload),
                // Keys are agreed in the hello, so only an established
                // connection fails a MAC.  The error goes out sealed with our
                // own key: the legitimate keyholder can read it, a forger
                // learns nothing new.
                Err(error) if error.kind == ServiceErrorKind::Unauthenticated => {
                    ClusterMetrics::count(&self.cluster.auth_rejections);
                    self.queue_transport_error(error);
                }
                Err(error) if self.established => self.queue_transport_error(error),
                Err(error) => {
                    TransportMetrics::add(&self.metrics.transport_errors, 1);
                    self.reject_hello(error);
                }
            }
            any = true;
        }
        self.io.end_pass(pass);
        any
    }

    fn handle_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        match kind {
            FrameKind::Request => {
                let Some(envelope) = self.decode_or_refuse::<RequestEnvelope>(payload) else {
                    return;
                };
                // A resident hit is answered here, from the forest body the
                // cache encoded once: no dispatch hop, no re-encode, and
                // never shed, since it adds nothing to the dispatch backlog.
                // The frame is byte-identical to the dispatch path's reply.
                if PROTOCOL_VERSION.is_compatible_with(&envelope.version) {
                    let hit = self
                        .service
                        .cache()
                        .and_then(|c| c.encoded_hit(envelope.request));
                    if let Some(body) = hit {
                        TransportMetrics::add(&self.metrics.requests_admitted, 1);
                        self.queue_frame(
                            WireCodec::Binary.encode_forest_reply(envelope.request_id, &body),
                        );
                        return;
                    }
                }
                // Admission control: a saturated dispatch pool sheds instead
                // of queueing.  The reply echoes the request's own id so the
                // client correlates it like any other response — the
                // connection stays open and synchronized (no drain), the
                // error is retryable.
                let backlog = self.dispatch.backlog();
                if backlog >= self.config.max_dispatch_backlog {
                    TransportMetrics::add(&self.metrics.requests_shed, 1);
                    let reply = ResponseEnvelope::error(
                        envelope.request_id,
                        ServiceError::overloaded(format!(
                            "dispatch backlog at {backlog} (limit {}); retry with backoff",
                            self.config.max_dispatch_backlog
                        )),
                    );
                    self.queue_frame(WireCodec::Binary.encode_frame(&reply));
                    return;
                }
                TransportMetrics::add(&self.metrics.requests_admitted, 1);
                let (tx, rx) = oneshot::channel();
                self.pending.push(PendingReply {
                    request_id: envelope.request_id,
                    rx,
                });
                let service = Arc::clone(&self.service);
                self.dispatch.execute(move || {
                    // Envelope version check, service stack, serialization:
                    // all off the reactor thread.
                    let reply = service.handle_envelope(&envelope);
                    let _ = tx.send(WireCodec::Binary.encode_frame(&reply));
                });
            }
            FrameKind::Warm => {
                let Some(plan) = self.decode_or_refuse::<WarmRequest>(payload) else {
                    return;
                };
                // Every key is a full forest generation: refuse plans large
                // enough to pin the dispatch pool (one small frame could
                // otherwise schedule hours of solves).  The deduplicated
                // request list is the actual work, not the raw product.
                let keys = plan.requests().len();
                if keys > MAX_WARM_KEYS {
                    self.queue_transport_error(ServiceError::transport(format!(
                        "warm plan names {keys} keys, exceeding the {MAX_WARM_KEYS}-key limit"
                    )));
                    return;
                }
                let (tx, rx) = oneshot::channel();
                self.pending.push(PendingReply { request_id: 0, rx });
                let service = Arc::clone(&self.service);
                self.dispatch.execute(move || {
                    let report = warm(service.as_ref(), &plan);
                    let _ = tx.send(WireCodec::Binary.encode_frame(&report));
                });
            }
            FrameKind::WarmPush => {
                let Some(push) = self.decode_or_refuse::<WarmPush>(payload) else {
                    return;
                };
                // Adopt the peer's solved forest directly: a push never
                // schedules a solve.  A stack without a cache drops it.
                ClusterMetrics::count(&self.cluster.pushes_received);
                let outcome = self.service.cache().map(|c| c.warm_insert(push.forest));
                if outcome == Some(WarmInsertOutcome::AlreadyResident) {
                    ClusterMetrics::count(&self.cluster.pushes_deduped);
                }
            }
            FrameKind::Stats => {
                if self.decode_or_refuse::<StatsRequest>(payload).is_none() {
                    return;
                }
                // Counter snapshots are cheap: answered inline on the
                // reactor, aggregated across every shard so the wire view
                // matches TcpServer::stats().
                let report = StatsReport {
                    transport: aggregate_stats(&self.shard_metrics),
                    cache: self.service.cache_stats(),
                    cluster: Some(cluster_snapshot(
                        &self.cluster,
                        self.config.replication.as_deref(),
                    )),
                };
                self.queue_frame(WireCodec::Binary.encode_frame(&report));
            }
            FrameKind::Ping => {
                // Liveness probe (protocol 1.5): echo the nonce back.  The
                // reply is queued inline on the reactor — a server that can
                // still run its event loop is, by definition, alive.
                let Some(ping) = self.decode_or_refuse::<Ping>(payload) else {
                    return;
                };
                self.queue_frame(WireCodec::Binary.encode_frame(&Pong { nonce: ping.nonce }));
            }
            FrameKind::Digest => {
                // Anti-entropy exchange (protocol 1.5): a summary of resident
                // cache keys, or one pulled forest.  Both are answered from
                // the cache alone — a digest never schedules a solve.
                let Some(request) = self.decode_or_refuse::<DigestRequest>(payload) else {
                    return;
                };
                // A stack without a cache answers an empty digest at
                // generation 0 and no pulled forest.
                let cache = self.service.cache();
                let generation = cache.map_or(0, ForestCache::generation);
                let reply = match request.pull {
                    None => {
                        // Bounded like Warm frames: a digest larger than the
                        // warm-key limit is truncated, not refused — a
                        // shorter summary just re-warms less.
                        let mut keys = cache.map(ForestCache::resident_keys).unwrap_or_default();
                        keys.truncate(MAX_WARM_KEYS);
                        DigestReply {
                            generation,
                            keys,
                            forest: None,
                        }
                    }
                    Some(key) => {
                        let forest = cache.and_then(|c| c.resident(key));
                        if forest.is_some() {
                            // One cache entry repaired into a rejoining peer.
                            ClusterMetrics::count(&self.cluster.pushes_repaired);
                        }
                        DigestReply {
                            generation,
                            keys: Vec::new(),
                            forest,
                        }
                    }
                };
                self.queue_frame(WireCodec::Binary.encode_frame(&reply));
            }
            // A second hello, or a server-to-client kind from a client: the
            // peer is confused; tell it so and hang up.
            FrameKind::Hello
            | FrameKind::HelloReply
            | FrameKind::Response
            | FrameKind::WarmReply
            | FrameKind::StatsReply
            | FrameKind::Pong
            | FrameKind::DigestReply => {
                self.queue_transport_error(ServiceError::transport(format!(
                    "unexpected {kind:?} frame after the hello"
                )));
            }
        }
    }

    /// Move finished dispatch jobs from `pending` into the write queue.
    fn collect_completions(&mut self, cx: &mut Context<'_>) -> bool {
        let mut any = false;
        let mut completed: Vec<(usize, Vec<u8>)> = Vec::new();
        for (index, reply) in self.pending.iter_mut().enumerate() {
            match Pin::new(&mut reply.rx).poll(cx) {
                Poll::Ready(Ok(frame)) => completed.push((index, frame)),
                Poll::Ready(Err(_)) => {
                    // The dispatch job died (worker panic): the request must
                    // still get an answer.
                    let envelope = ResponseEnvelope::error(
                        reply.request_id,
                        ServiceError::new(
                            ServiceErrorKind::Internal,
                            "request handler panicked on the dispatch pool",
                        ),
                    );
                    completed.push((index, WireCodec::Binary.encode_frame(&envelope)));
                }
                Poll::Pending => {}
            }
        }
        for (index, frame) in completed.into_iter().rev() {
            self.pending.remove(index);
            self.queue_frame(frame);
            any = true;
        }
        any
    }

    /// Read and walk the first frames of a fresh connection.  Returns `None`
    /// once the hello is answered (accepted or refused), for the serving
    /// loop to take over.
    fn handshake_step(&mut self, cx: &mut Context<'_>) -> Option<Poll<()>> {
        // Bound the handshake (and any half-sent first frame) by the deadline.
        if Pin::new(&mut self.deadline).poll(cx).is_ready() {
            return Some(Poll::Ready(()));
        }
        if self.io.read_available().is_err() {
            return Some(Poll::Ready(()));
        }
        self.process_frames();
        if self.established || self.draining {
            return None;
        }
        self.handle
            .park_socket(self.io.fd(), true, !self.io.is_flushed(), cx.waker());
        Some(Poll::Pending)
    }

    /// Answer the first frame of a connection: it must be a hello this
    /// server accepts.
    fn handle_hello(&mut self, kind: FrameKind, payload: &[u8]) {
        if kind != FrameKind::Hello {
            TransportMetrics::add(&self.metrics.transport_errors, 1);
            self.reject_hello(ServiceError::transport(format!(
                "expected a Hello frame, got {kind:?}"
            )));
            return;
        }
        let hello = match WireCodec::Binary.decode_payload::<HelloFrame>(payload) {
            Ok(hello) if PROTOCOL_VERSION.is_compatible_with(&hello.version) => hello,
            // A version mismatch is a well-formed exchange, visible as an
            // accepted-then-closed connection, not a transport error — and
            // so is the JSON hello of a 1.x peer.
            Ok(hello) => {
                self.reject_hello(ServiceError::unsupported_version(hello.version));
                return;
            }
            Err(_) if payload.first() == Some(&b'{') => {
                self.reject_hello(ServiceError::new(
                    ServiceErrorKind::UnsupportedVersion,
                    format!(
                        "JSON hello from a protocol 1.x peer; protocol \
                         {PROTOCOL_VERSION} frames are binary"
                    ),
                ));
                return;
            }
            Err(e) => {
                TransportMetrics::add(&self.metrics.transport_errors, 1);
                self.reject_hello(e);
                return;
            }
        };
        // Authentication comes first: a key mismatch must surface as a
        // legible structured rejection (always without a MAC), never a MAC
        // failure.
        let keyed = match (&self.config.cluster_key, hello.auth.as_deref()) {
            (Some(key), Some(AUTH_SCHEME)) => {
                self.io.set_auth(key.clone());
                true
            }
            (Some(_), announced) => {
                ClusterMetrics::count(&self.cluster.auth_rejections);
                self.reject_hello(ServiceError::unauthenticated(match announced {
                    None => "server requires authenticated frames (hmac-sha256); configure \
                             the cluster key"
                        .to_string(),
                    Some(other) => format!(
                        "server requires the hmac-sha256 frame-authentication scheme, client \
                         announced {other:?}"
                    ),
                }));
                return;
            }
            (None, Some(scheme)) => {
                ClusterMetrics::count(&self.cluster.auth_rejections);
                self.reject_hello(ServiceError::unauthenticated(format!(
                    "client announced {scheme:?} frame authentication but this server has no \
                     cluster key"
                )));
                return;
            }
            (None, None) => false,
        };
        TransportMetrics::add(&self.metrics.binary_connections, 1);
        let reply = HelloReply::Accepted {
            version: PROTOCOL_VERSION,
            grid: *self.service.tree().grid().config(),
            prior: (*self.service.prior()).clone(),
            auth: keyed.then(|| AUTH_SCHEME.to_string()),
        };
        // The stream seals the accepted reply when auth just became active —
        // the client verifies it on arrival — and verifies every later frame.
        self.queue_frame(WireCodec::Binary.encode_frame(&reply));
        self.established = true;
        self.last_progress = Instant::now();
        self.idle = self
            .config
            .read_idle_timeout
            .map(|timeout| self.handle.sleep(timeout));
    }

    /// Refuse the hello with a structured rejection and close once it has
    /// been written.
    fn reject_hello(&mut self, error: ServiceError) {
        self.queue_frame(WireCodec::Binary.encode_frame(&HelloReply::Rejected(error)));
        self.begin_drain();
    }
}

impl Future for ConnectionTask {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.handle.is_shutdown() {
            return Poll::Ready(());
        }
        if !this.established && !this.draining {
            if let Some(poll) = this.handshake_step(cx) {
                return poll;
            }
        }
        loop {
            let mut progress = false;

            if !this.draining {
                progress |= this.collect_completions(cx);
            }
            if this.io.flush().is_err() {
                return Poll::Ready(()); // peer gone
            }
            if this.draining {
                if this.io.is_flushed() {
                    return Poll::Ready(());
                }
                // Bounded drain: begin_drain re-armed the deadline, capping
                // how long a slow peer may take the final error frame.
                if Pin::new(&mut this.deadline).poll(cx).is_ready() {
                    return Poll::Ready(());
                }
                // Only the blocked write matters now; the deadline timer is
                // the other wake source.
                this.handle
                    .park_socket(this.io.fd(), false, true, cx.waker());
                return Poll::Pending;
            }
            if !this.eof && !this.at_capacity() {
                this.stalled = false;
                match this.io.read_available() {
                    Ok(read) => progress |= read,
                    Err(_) => this.eof = true,
                }
            } else if !this.eof && !this.stalled {
                // Rising edge of a backpressure stall: the write queue or
                // in-flight cap is full, so the socket stops being read until
                // it drains (TCP flow control pushes back on the peer).
                this.stalled = true;
                TransportMetrics::add(&this.metrics.backpressure_stalls, 1);
            }
            progress |= this.process_frames();
            if let Some(timeout) = this.config.read_idle_timeout {
                if progress {
                    // Any consumed frame (or completed dispatch) moves the
                    // read-idle deadline; the armed sleep catches up with it
                    // when it fires.
                    this.last_progress = Instant::now();
                } else if let Some(idle) = this.idle.as_mut() {
                    if Pin::new(idle).poll(cx).is_ready() {
                        let now = Instant::now();
                        let quiet = now.saturating_duration_since(this.last_progress) >= timeout;
                        if quiet && this.pending.is_empty() && this.io.is_flushed() && !this.eof {
                            // Connected but mute: reclaim the connection with
                            // a structured goodbye instead of holding its
                            // buffers and fd forever.
                            this.queue_transport_error(ServiceError::transport(format!(
                                "no frame received within the {timeout:?} read-idle deadline; \
                                 closing",
                            )));
                        } else {
                            if quiet {
                                // In-flight work or queued output keeps the
                                // connection alive; give it a fresh window.
                                this.last_progress = now;
                            }
                            let deadline = this.last_progress + timeout;
                            this.idle =
                                Some(this.handle.sleep(deadline.saturating_duration_since(now)));
                        }
                        progress = true;
                    }
                }
            }
            if this.eof && this.pending.is_empty() && this.io.is_flushed() {
                return Poll::Ready(());
            }
            if !progress {
                // Completions wake us via their oneshot wakers; socket
                // readiness arrives from the kernel (epoll) or with the next
                // reactor tick.  Interest mirrors the state machine: read
                // while we would consume input, write while frames are
                // queued — a connection at capacity parks with no interest
                // and is woken only by a completion draining it.
                this.handle.park_socket(
                    this.io.fd(),
                    !this.eof && !this.at_capacity(),
                    !this.io.is_flushed(),
                    cx.waker(),
                );
                return Poll::Pending;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProtocolVersion;
    use corgi_datagen::PriorDistribution;
    use corgi_hexgrid::HexGridConfig;

    #[test]
    fn frame_errors_map_to_transport_service_errors() {
        for e in [
            FrameError::BadMagic(*b"no"),
            FrameError::UnknownKind(9),
            FrameError::Oversized { len: 10, max: 5 },
        ] {
            let s: ServiceError = e.into();
            assert_eq!(s.kind, ServiceErrorKind::Transport);
            assert!(!s.message.is_empty());
        }
    }

    #[test]
    fn hello_frames_roundtrip_through_json() {
        // The serde derives stay for tooling that prints frames as JSON.
        let hello = HelloFrame::current();
        let json = serde_json::to_string(&hello).unwrap();
        let back: HelloFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, hello);

        // An authenticated hello round-trips its scheme.
        let keyed = HelloFrame::current().authenticated();
        let json = serde_json::to_string(&keyed).unwrap();
        let back: HelloFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back.auth.as_deref(), Some(crate::auth::AUTH_SCHEME));

        let rejected = HelloReply::Rejected(ServiceError::unsupported_version(ProtocolVersion {
            major: 9,
            minor: 0,
        }));
        let json = serde_json::to_string(&rejected).unwrap();
        let back: HelloReply = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rejected);
    }

    #[test]
    fn read_idle_deadline_keeps_one_timer_per_connection() {
        // The read-idle deadline stays one timer entry however many frames
        // flow.  A fresh sleep per frame would leave one entry queued per
        // frame until its deadline, each later waking the connection for
        // nothing.
        use corgi_core::LocationTree;
        use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator};
        use corgi_hexgrid::HexGrid;

        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        let service: Arc<dyn MatrixService> = Arc::new(crate::ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            crate::ServerConfig::default(),
        ));
        let config = TransportConfig {
            reactor_shards: 1,
            read_idle_timeout: Some(Duration::from_secs(30)),
            ..TransportConfig::default()
        };
        let server = TcpServer::bind("127.0.0.1:0", service, config).unwrap();
        let client = TcpTransport::connect(server.local_addr()).unwrap();
        for _ in 0..3000 {
            client.ping().expect("a ping round trip");
        }
        // The handshake deadline and the one armed read-idle sleep.
        let timers = server.shards[0].handle.pending_timers();
        assert!(
            timers <= 3,
            "{timers} timer entries queued for one connection after 3000 frames"
        );
        server.shutdown();
    }
}
