//! The CORGI client/server framework (paper Section 5, Fig. 1 and Fig. 8).
//!
//! Three actors interact:
//!
//! * the **server** (untrusted, computationally powerful): builds the location
//!   tree over the area of interest, and — given only a privacy level and the
//!   *number* of locations the user intends to prune — generates a robust
//!   obfuscation matrix for **every** subtree of the privacy forest
//!   (Algorithm 3), so it never learns which subtree contains the user;
//! * the **user device** (trusted): evaluates the customization policy on its
//!   private metadata, selects the matrix of its own subtree, prunes it, reduces
//!   its precision and samples the obfuscated location (Algorithm 4);
//! * **third-party location-based services**: receive only the obfuscated cell.
//!
//! # The serving stack
//!
//! The server side is organized around the [`MatrixService`] trait with two
//! implementations layered by composition and one cache:
//!
//! | Layer | Responsibility |
//! |---|---|
//! | [`ForestGenerator`] | Raw compute: per-subtree LP solves fanned out over a fixed-size [`ThreadPool`] |
//! | [`CachingService`] | Serves the inner service through its [`ForestCache`] |
//! | [`ForestCache`] | Capacity-bounded LRU over `(privacy_level, δ)` keys, under one lock, with single-flight deduplication and each forest's body encoded once; the bound is exact, so the least recently used entry goes only when an insert would exceed it; counters in [`CacheStats`] |
//!
//! A typical deployment composes them behind a trait object:
//!
//! ```text
//! Arc<dyn MatrixService> = CachingService<ForestGenerator>
//!                          └─ cache() ──► ForestCache
//! ```
//!
//! The server reaches the cache only through [`MatrixService::cache`]:
//! inline resident hits, `WarmPush` replication, digests and re-warm.
//!
//! # The event-driven serving core
//!
//! Cross-process serving stacks four more layers under that trait object,
//! every one hand-rolled on `std` (the offline build has no tokio/mio):
//!
//! ```text
//! executor   executor::Executor — single-threaded future runner: atomic-state
//!    │        wakers, a deadline heap, oneshot completions and one run loop
//!    │        that blocks in epoll (a 500 µs timed poll where it is
//!    │        unavailable)
//! reactor    transport::{AcceptTask, ConnectionTask} — nonblocking std::net
//!    │        sockets parked on readiness, each driven through a
//!    │        FrameStream: bounded read buffer, frame walk, write queue
//! transport  frame.rs: length-prefixed frames carrying the versioned
//!    │        envelopes of [`messages`] in the binary [`WireCodec`] of
//!    │        [`mod@codec`] (the only wire encoding, the hello included);
//!    │        version and authentication checked in the hello, the first
//!    │        frame of the walk
//! service    Arc<dyn MatrixService> — requests dispatched to a ThreadPool,
//!             responses re-entering the event loop as oneshot futures
//! ```
//!
//! [`TcpServer`] runs the three top layers on
//! [`TransportConfig::reactor_shards`] reactor threads, one executor each.
//! On the client side every connection — [`TcpTransport`], the
//! [`ShardRouter`]'s shard and probe connections, the replication links
//! between peers — is one connection type opened by one hello exchange,
//! and the replication links run on the server's frame stream.
//! [`TcpTransport`] is itself a [`MatrixService`], so [`CorgiClient`] works
//! unchanged over a process boundary.  The [`mod@warm`] subsystem precomputes
//! the `(privacy_level, δ)` key grid through whatever caching layer the stack
//! holds, making steady-state traffic cache-hit dominated.
//!
//! # The cluster subsystem (protocols 1.4–1.5)
//!
//! [`mod@cluster`] scales the single-server stack out horizontally:
//!
//! * [`ShardRouter`] — a client-side [`MatrixService`] that rendezvous-hashes
//!   each `(privacy_level, δ)` cache key across N server endpoints and fails
//!   over to the next-ranked shard with bounded retry/backoff;
//! * [`Replicator`] / [`ReplicatingService`] — after a cold miss, the solving
//!   shard pushes the key (and usually the solved forest) to its peers as
//!   fire-and-forget `WarmPush` frames over bounded drop-oldest queues, so a
//!   miss on shard A becomes a warm hit on shard B without a second LP solve;
//! * [`mod@auth`] — hand-rolled SHA-256/HMAC frame authentication
//!   ([`ClusterKey`]) agreed at `Hello` time, appending a truncated MAC
//!   trailer to every frame of a keyed cluster;
//! * wire-level observability — a `Stats` frame returns a [`StatsReport`]
//!   (transport + cache + cluster counters) without touching in-process
//!   accessors.
//!
//! Protocol 1.5 adds the resilience layer: `Ping`/`Pong` liveness probes,
//! riding established connections, drive a per-peer health state machine
//! ([`cluster::PeerHealthState`]) so routing skips known-dead shards before
//! paying a connect timeout;
//! `Digest`/`DigestReply` frames let a restarted shard re-warm its cache
//! from peers without repeating any LP solve
//! ([`TcpServer::rewarm_from_peers`]); and an optional [`FaultPlan`]
//! ([`mod@fault`]) injects deterministic failures through the transport for
//! chaos testing.
//!
//! [`CorgiClient`] implements the trusted device side against the trait
//! object; [`messages`] defines the serde-serializable wire format — including
//! the versioned [`messages::RequestEnvelope`] / [`messages::ResponseEnvelope`]
//! — and [`MetadataAttributeProvider`] bridges the `corgi-datagen` location
//! labels into the policy evaluation of `corgi-core`.

#![warn(missing_docs)]

pub mod auth;
mod client;
pub mod cluster;
pub mod codec;
mod conn;
pub mod executor;
pub mod fault;
mod frame;
pub mod messages;
mod pool;
mod provider;
mod server;
mod service;
pub mod sys;
pub mod transport;
pub mod warm;

pub use auth::ClusterKey;
pub use client::{CorgiClient, ObfuscationOutcome};
pub use cluster::{
    rendezvous_rank, ClusterStats, HealthConfig, PeerHealthState, PeerStats, Ping, Pong,
    ReplicatingService, ReplicationConfig, Replicator, RouterConfig, ShardRouter, StatsReport,
    StatsRequest,
};
pub use codec::{ForestBody, WireMessage, WireReader};
pub use executor::ReactorBackend;
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use messages::{ServiceError, ServiceErrorKind, WireCodec};
pub use pool::{JobPanic, ThreadPool};
pub use provider::MetadataAttributeProvider;
pub use server::ServerConfig;
pub use service::{
    CacheStats, CachingService, ForestCache, ForestGenerator, MatrixService, WarmInsertOutcome,
    WarmSeedStats,
};
pub use transport::{ClientConfig, TcpServer, TcpTransport, TransportConfig, TransportStats};
pub use warm::{
    warm, DigestReply, DigestRequest, RewarmReport, WarmFailure, WarmPush, WarmReport, WarmRequest,
};
