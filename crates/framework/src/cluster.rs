//! Cluster serving (protocols 1.4–1.5): shard routing, peer replication,
//! liveness probing and the wire-visible cluster counters.
//!
//! A CORGI deployment outgrows one server long before it outgrows one cache:
//! the working set is a few hundred `(privacy_level, δ)` keys, but admission
//! control bounds how many concurrent solves a single dispatch pool accepts.
//! This module turns N independent [`TcpServer`]s into one cluster with three
//! pieces, none of which requires a coordinator:
//!
//! * **[`ShardRouter`]** — a client-side [`MatrixService`] that rendezvous-
//!   hashes the cache key across the shard endpoints, so every client agrees
//!   on which shard owns a key without any shared state.  A shard that sheds
//!   (retryable overload) or fails mid-request is failed over to the
//!   next-ranked shard with per-round backoff.
//! * **[`Replicator`] + [`ReplicatingService`]** — server-side peer links.
//!   The wrapper sits *inside* the caching layer, so exactly the cold-miss
//!   single-flight leader offers its freshly solved forest to a bounded
//!   drop-oldest per-peer queue; a reactor task flushes the queues to the
//!   peers as fire-and-forget `WarmPush` frames.  A cold miss on shard A is
//!   then a warm hit on shard B without a second LP solve.
//! * **[`StatsRequest`]/[`StatsReport`]** — a request frame returning the
//!   server's [`TransportStats`], [`CacheStats`] and [`ClusterStats`] over
//!   the wire, so harnesses observe a remote server exactly as tests observe
//!   an in-process one.
//!
//! Frame authentication for the whole tier is agreed per connection from
//! the shared cluster key — see [`crate::auth`].  Peer links and the router
//! both honour it; a misconfigured key is a structured
//! [`Unauthenticated`](crate::ServiceErrorKind::Unauthenticated) rejection at
//! the hello exchange, never a silent desync.
//!
//! Protocol 1.5 adds the resilience layer: `Ping`/`Pong` liveness probes
//! drive a per-peer health state machine
//! ([`Healthy → Suspect → Down → Probation`](PeerHealthState)) so the router
//! skips known-dead shards *before* paying a connect timeout, and the
//! anti-entropy digest exchange
//! ([`DigestRequest`](crate::warm::DigestRequest)/
//! [`DigestReply`](crate::warm::DigestReply)) lets a restarted shard re-warm
//! its cache from healthy peers instead of re-solving — see
//! [`TcpServer::rewarm_from_peers`](crate::TcpServer::rewarm_from_peers).
//!
//! ```text
//!                      ┌─────────────┐
//!        requests ───► │ ShardRouter │  rendezvous_rank(key) → shard
//!                      └──┬───┬───┬──┘
//!              ┌──────────┘   │   └──────────┐
//!         ┌────▼────┐    ┌────▼────┐    ┌────▼────┐
//!         │ shard A │───►│ shard B │───►│ shard C │   WarmPush peer links
//!         └─────────┘◄───└─────────┘◄───└─────────┘   (bounded, drop-oldest)
//! ```
//!
//! [`TcpServer`]: crate::TcpServer

use crate::auth::ClusterKey;
use crate::conn::{ClientConfig, Conn, TcpTransport};
use crate::executor::{oneshot, Handle, Sleep};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::frame::{FrameKind, FrameStream};
use crate::messages::{
    MatrixRequest, PrivacyForestResponse, ServiceError, ServiceErrorKind, WireCodec,
};
use crate::pool::ThreadPool;
use crate::service::{CacheStats, ForestCache, MatrixService};
use crate::transport::TransportStats;
use crate::warm::WarmPush;
use corgi_core::LocationTree;
use corgi_datagen::PriorDistribution;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a: tiny, allocation-free, and plenty uniform for spreading a
/// few hundred cache keys over a handful of shards.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Murmur3-style 64-bit finalization avalanche.  FNV-1a on its own has none:
/// once the per-endpoint bytes are absorbed, a shared key suffix applies the
/// *same* xor-small/multiply sequence to every endpoint's state, which
/// approximately preserves the relative order of the hashes — so endpoints
/// differing in a few characters (loopback ports!) elect the same winner for
/// every key.  Mixing the final state breaks that order dependence.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Rank shard endpoints for a cache key by rendezvous (highest-random-weight)
/// hashing: every client computes `hash(endpoint ‖ key)` per endpoint and
/// ranks descending, so all clients agree on the owner (index 0) and on the
/// failover order behind it — and removing one endpoint only remaps the keys
/// that endpoint owned.
///
/// Returns a permutation of `0..endpoints.len()`.
pub fn rendezvous_rank<S: AsRef<str>>(
    endpoints: &[S],
    privacy_level: u8,
    delta: usize,
) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = endpoints
        .iter()
        .enumerate()
        .map(|(index, endpoint)| {
            let mut hash = Fnv1a::new();
            hash.write(endpoint.as_ref().as_bytes());
            // 0xff cannot occur in UTF-8, so the separator keeps
            // ("ab", level 1) and ("a", "b1"-ish keys) from colliding.
            hash.write(&[0xff, privacy_level]);
            hash.write(&(delta as u64).to_be_bytes());
            (fmix64(hash.finish()), index)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, index)| index).collect()
}

// ---------------------------------------------------------------------------
// Wire-visible stats
// ---------------------------------------------------------------------------

/// Request payload of a `Stats` frame (protocol 1.4).  Carries nothing; the
/// reply is a [`StatsReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsRequest {}

/// Reply payload of a `Stats` frame: the server's counters, over the wire.
///
/// `cache` is `None` when the service stack has no caching layer; `cluster`
/// is always present from a 1.4 server (zeroed when the server is not
/// clustered).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Connection-level counters ([`crate::TcpServer::stats`]).
    pub transport: TransportStats,
    /// Caching-layer counters, when the stack has one.
    pub cache: Option<CacheStats>,
    /// Cluster-tier counters ([`crate::TcpServer::cluster_stats`]).
    pub cluster: Option<ClusterStats>,
}

/// Point-in-time counters of the cluster tier.
///
/// A server snapshot ([`crate::TcpServer::cluster_stats`]) fills the push and
/// auth counters plus one [`PeerStats`] per replication peer; a router
/// snapshot ([`ShardRouter::cluster_stats`]) fills `failovers` plus one
/// [`PeerStats`] per shard.  The shape is shared so both travel in a
/// [`StatsReport`] unchanged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// `WarmPush` frames received from peers.
    pub pushes_received: u64,
    /// Received pushes whose key was already resident (dedup hits).
    pub pushes_deduped: u64,
    /// Frames or hellos rejected by authentication (missing announcement,
    /// wrong key, tampered bytes).
    pub auth_rejections: u64,
    /// Requests the router moved past a failed or shedding shard (client
    /// side only; zero in server snapshots).
    pub failovers: u64,
    /// Rendezvous rankings served from the router's memo cache instead of
    /// being rehashed (client side only; zero in server snapshots).
    pub rank_memo_hits: u64,
    /// Liveness probes completed (protocol 1.5) — over the server's peer
    /// links or by the router's prober thread, whichever side is reporting.
    /// A failed redial of a probed link counts as a (failed) probe.
    pub probes_sent: u64,
    /// Health-state transitions into `Down` observed by this side's probes
    /// (protocol 1.5).
    pub peers_down: u64,
    /// Forests this server pulled from peers while re-warming after a
    /// restart (protocol 1.5; see
    /// [`TcpServer::rewarm_from_peers`](crate::TcpServer::rewarm_from_peers)).
    pub rewarm_keys_pulled: u64,
    /// Anti-entropy digest pulls this server answered with a resident forest
    /// payload, repairing a peer's missed pushes (protocol 1.5).
    pub pushes_repaired: u64,
    /// Per-peer (server) or per-shard (router) link counters.
    pub peers: Vec<PeerStats>,
}

/// Per-link counters inside a [`ClusterStats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PeerStats {
    /// The peer or shard address.
    pub endpoint: String,
    /// `WarmPush` frames fully written to this peer.
    pub pushes_sent: u64,
    /// Pushes evicted from the bounded queue (drop-oldest) because the peer
    /// was slow or down.
    pub pushes_dropped: u64,
    /// Pushes currently waiting in the queue.
    pub queue_depth: u64,
    /// Connections established to this peer or shard.
    pub connects: u64,
    /// Link-level failures (failed connects, dead sockets, poisoned
    /// connections).
    pub link_errors: u64,
    /// Requests completed via this shard (router side only).
    pub requests: u64,
}

/// The atomic counters behind a [`ClusterStats`], one home for both sides of
/// the tier: a server counts pushes, auth rejections, its links' probes and
/// re-warm pulls; a [`ShardRouter`] (and its prober thread) counts failovers,
/// memo hits and its own probes.  Counters a side never touches read zero.
#[derive(Default)]
pub(crate) struct ClusterMetrics {
    pub(crate) pushes_received: AtomicU64,
    pub(crate) pushes_deduped: AtomicU64,
    pub(crate) auth_rejections: AtomicU64,
    failovers: AtomicU64,
    rank_memo_hits: AtomicU64,
    probes_sent: AtomicU64,
    peers_down: AtomicU64,
    pub(crate) rewarm_keys_pulled: AtomicU64,
    pub(crate) pushes_repaired: AtomicU64,
}

impl ClusterMetrics {
    /// Count one event on `counter`.
    pub(crate) fn count(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Feed one outcome to a peer's health state, counting `peers_down` when
    /// it takes the peer into `Down`.  Returns whether it did.
    fn observe(&self, peer: &PeerHealth, ok: bool, config: &HealthConfig) -> bool {
        let went_down = peer.observe(ok, config);
        if went_down {
            Self::count(&self.peers_down);
        }
        went_down
    }

    /// The one place a [`ClusterStats`] is built from live counters; `peers`
    /// are the per-link (server) or per-shard (router) rows.
    pub(crate) fn snapshot(&self, peers: Vec<PeerStats>) -> ClusterStats {
        ClusterStats {
            pushes_received: self.pushes_received.load(Ordering::Relaxed),
            pushes_deduped: self.pushes_deduped.load(Ordering::Relaxed),
            auth_rejections: self.auth_rejections.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            rank_memo_hits: self.rank_memo_hits.load(Ordering::Relaxed),
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            peers_down: self.peers_down.load(Ordering::Relaxed),
            rewarm_keys_pulled: self.rewarm_keys_pulled.load(Ordering::Relaxed),
            pushes_repaired: self.pushes_repaired.load(Ordering::Relaxed),
            peers,
        }
    }
}

// ---------------------------------------------------------------------------
// Liveness probing + peer health (protocol 1.5)
// ---------------------------------------------------------------------------

/// Request payload of a `Ping` frame (protocol 1.5): a liveness probe.  The
/// nonce is echoed back in the [`Pong`] so a probe cannot be satisfied by a
/// stale or replayed reply; on keyed connections the frame is MAC'd like
/// every other post-hello frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ping {
    /// Echo token; the matching [`Pong`] must carry the same value.
    pub nonce: u64,
}

impl Ping {
    /// A probe carrying a nonce unique within this process.
    pub(crate) fn fresh() -> Self {
        static NONCE: AtomicU64 = AtomicU64::new(1);
        Self {
            nonce: NONCE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Reply payload of a `Ping` frame: the echoed nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pong {
    /// The nonce of the [`Ping`] being answered.
    pub nonce: u64,
}

/// Tunables of the per-peer liveness state machine (protocol 1.5).
///
/// Handed to a [`Replicator`] via [`ReplicationConfig::health`] (probes ride
/// the server's replication links) or to a [`ShardRouter`] via
/// [`RouterConfig::health`] (a prober thread holding one connection per
/// shard); `None` in either place disables probing and health tracking
/// entirely, which is the 1.4 behaviour.  Either way a probe is one `Ping`
/// on an established connection; a connection is dialed again only after a
/// probe has failed on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthConfig {
    /// Pause between consecutive probes of the same peer.
    pub probe_interval: Duration,
    /// How long a `Ping` may wait for its `Pong`; also bounds the hello of a
    /// redial after a failed probe.
    pub probe_timeout: Duration,
    /// Consecutive probe failures that take a peer from `Healthy` to `Down`
    /// (via `Suspect`).
    pub failure_threshold: u32,
    /// Consecutive probe successes a `Down` peer must pass in `Probation`
    /// before it is re-admitted as `Healthy`.
    pub probation_successes: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_secs(1),
            probe_timeout: Duration::from_millis(250),
            failure_threshold: 3,
            probation_successes: 2,
        }
    }
}

/// Where a peer stands in the liveness state machine.
///
/// ```text
///            fail            fail ×threshold
///  Healthy ───────► Suspect ─────────────► Down
///     ▲  ▲             │ ok                  │ ok
///     │  └─────────────┘                     ▼
///     │        ok ×probation           Probation ──fail──► Down
///     └────────────────────────────────────┘
/// ```
///
/// `Healthy` and `Suspect` peers are admitted for requests (a suspicion is
/// not yet a verdict); `Down` and `Probation` peers are skipped by the
/// [`ShardRouter`] until probation completes, so no request ever pays a
/// connect timeout against a known-dead shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealthState {
    /// The peer answers probes; requests route to it normally.
    Healthy,
    /// The peer missed this many consecutive probes (fewer than the
    /// threshold); still admitted for requests.
    Suspect(u32),
    /// The peer crossed the failure threshold; requests skip it.
    Down,
    /// A down peer answered a probe again and has passed this many
    /// consecutive probes; still skipped until the configured streak
    /// completes.
    Probation(u32),
}

/// One peer's health cell: the state machine plus the lock guarding it.
pub(crate) struct PeerHealth {
    state: Mutex<PeerHealthState>,
}

impl PeerHealth {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(PeerHealthState::Healthy),
        }
    }

    pub(crate) fn state(&self) -> PeerHealthState {
        *self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether requests may route to this peer (`Healthy` or `Suspect`).
    pub(crate) fn is_admitted(&self) -> bool {
        matches!(
            self.state(),
            PeerHealthState::Healthy | PeerHealthState::Suspect(_)
        )
    }

    /// Feed one probe (or request) outcome through the state machine.
    /// Returns `true` exactly when this observation transitioned the peer
    /// *into* `Down`, so callers can count `peers_down` once per outage.
    pub(crate) fn observe(&self, ok: bool, config: &HealthConfig) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (next, went_down) = match (*state, ok) {
            (PeerHealthState::Healthy, true) => (PeerHealthState::Healthy, false),
            (PeerHealthState::Suspect(_), true) => (PeerHealthState::Healthy, false),
            (PeerHealthState::Down, true) | (PeerHealthState::Probation(_), true)
                if config.probation_successes <= 1 =>
            {
                (PeerHealthState::Healthy, false)
            }
            (PeerHealthState::Down, true) => (PeerHealthState::Probation(1), false),
            (PeerHealthState::Probation(n), true) => {
                if n + 1 >= config.probation_successes {
                    (PeerHealthState::Healthy, false)
                } else {
                    (PeerHealthState::Probation(n + 1), false)
                }
            }
            (PeerHealthState::Healthy, false) => {
                if config.failure_threshold <= 1 {
                    (PeerHealthState::Down, true)
                } else {
                    (PeerHealthState::Suspect(1), false)
                }
            }
            (PeerHealthState::Suspect(n), false) => {
                if n + 1 >= config.failure_threshold {
                    (PeerHealthState::Down, true)
                } else {
                    (PeerHealthState::Suspect(n + 1), false)
                }
            }
            // Already down: a probation stumble is not a *new* outage.
            (PeerHealthState::Down, false) | (PeerHealthState::Probation(_), false) => {
                (PeerHealthState::Down, false)
            }
        };
        *state = next;
        went_down
    }
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

/// Blocking connect/handshake budget per peer-link dial (also the link's
/// socket read timeout during the hello).
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on a peer link's doubled reconnect backoff.
const PEER_MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Largest frame a peer link accepts, the server's default
/// `max_inbound_frame`: a link only ever receives `Pong` frames and error
/// `Response` frames, so a longer header fails the link.
const PEER_MAX_INBOUND_FRAME: usize = 64 * 1024;

/// Tunables of a [`Replicator`]'s peer links.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Bound of each per-peer push queue.  A slow or dead peer evicts the
    /// *oldest* queued push (newest entries are the ones live traffic is
    /// most likely to ask the peer for next); the eviction is counted in
    /// [`PeerStats::pushes_dropped`].
    pub queue_depth: usize,
    /// Never read: every peer link speaks the binary codec since protocol
    /// 2.0.  Kept so configs that still set it compile.
    #[deprecated(note = "protocol 2.0 is binary-only; this field is never read")]
    pub codecs: Vec<WireCodec>,
    /// Cluster key for the peer-link hello; must match the peers' serving
    /// key.  The default reads `CORGI_CLUSTER_KEY`
    /// (see [`ClusterKey::from_env`]).
    pub cluster_key: Option<ClusterKey>,
    /// Backoff before the first reconnect attempt after a link failure;
    /// doubles per consecutive failure, up to 2 s.
    pub retry_backoff: Duration,
    /// Enable liveness probing of the peers (protocol 1.5): every peer link
    /// stays connected and carries a `Ping` each probe interval, driving the
    /// peer's [`PeerHealthState`].  `None` (the default) disables probing —
    /// the 1.4 behaviour, where an idle link dials only once a push is
    /// queued.
    pub health: Option<HealthConfig>,
    /// Deterministic fault injection hook for the peer connect/send paths;
    /// `None` (the default) in production.  See [`crate::fault`].
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ReplicationConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        Self {
            queue_depth: 64,
            codecs: Vec::new(),
            cluster_key: ClusterKey::from_env(),
            retry_backoff: Duration::from_millis(50),
            health: None,
            fault_plan: None,
        }
    }
}

/// One replication peer: its endpoint, bounded push queue and link counters.
pub(crate) struct PeerLink {
    endpoint: String,
    queue: Mutex<VecDeque<WarmPush>>,
    pushes_sent: AtomicU64,
    pushes_dropped: AtomicU64,
    connects: AtomicU64,
    link_errors: AtomicU64,
    /// Liveness state driven by the probes on this link (protocol 1.5); stays
    /// `Healthy` forever when probing is disabled.
    health: PeerHealth,
}

impl PeerLink {
    fn new(endpoint: String) -> Self {
        Self {
            endpoint,
            queue: Mutex::new(VecDeque::new()),
            pushes_sent: AtomicU64::new(0),
            pushes_dropped: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            link_errors: AtomicU64::new(0),
            health: PeerHealth::new(),
        }
    }

    /// Enqueue a push, evicting the oldest entry at the bound.
    fn offer(&self, push: WarmPush, depth: usize) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while queue.len() >= depth.max(1) {
            queue.pop_front();
            self.pushes_dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(push);
    }

    fn pop(&self) -> Option<WarmPush> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    fn is_queue_empty(&self) -> bool {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    fn stats(&self) -> PeerStats {
        PeerStats {
            endpoint: self.endpoint.clone(),
            pushes_sent: self.pushes_sent.load(Ordering::Relaxed),
            pushes_dropped: self.pushes_dropped.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            connects: self.connects.load(Ordering::Relaxed),
            link_errors: self.link_errors.load(Ordering::Relaxed),
            requests: 0,
        }
    }
}

/// The replication engine: per-peer bounded push queues, filled by a
/// [`ReplicatingService`] and drained by the one reactor task that
/// [`TcpServer::bind`](crate::TcpServer::bind) spawns when the replicator is
/// handed to it via [`TransportConfig::replication`].
///
/// A replicator drives the links of one live server at a time: `bind` claims
/// it, a second `bind` while it is claimed fails, and
/// [`TcpServer::shutdown`](crate::TcpServer::shutdown) (or dropping the
/// server) releases the claim and, with it, the replication task and its
/// peer connections.  The same replicator may then be bound again.
///
/// Peers may be added before or after bind ([`Replicator::add_peer`]) — in a
/// loopback cluster the servers must all be bound before any of them knows
/// the others' port-0 addresses.
///
/// [`TransportConfig::replication`]: crate::TransportConfig::replication
pub struct Replicator {
    config: ReplicationConfig,
    links: Mutex<Vec<Arc<PeerLink>>>,
    /// The replication task's waker, re-armed at the top of every task poll
    /// and taken by [`offer`](Self::offer) / [`add_peer`](Self::add_peer) —
    /// this is what lets an idle task block indefinitely instead of polling
    /// its queues once per tick.
    flush_waker: Mutex<Option<Waker>>,
    /// Whether a live server drives the links.
    claimed: AtomicBool,
}

impl fmt::Debug for Replicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replicator")
            .field("peers", &self.links().len())
            .field("queue_depth", &self.config.queue_depth)
            .finish()
    }
}

impl Replicator {
    /// A replicator with no peers yet.
    pub fn new(config: ReplicationConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            links: Mutex::new(Vec::new()),
            flush_waker: Mutex::new(None),
            claimed: AtomicBool::new(false),
        })
    }

    /// Add a peer endpoint; the replication task of the server this
    /// replicator is bound to is woken to pick it up immediately.
    pub fn add_peer(&self, endpoint: impl Into<String>) {
        {
            let mut links = self.links.lock().unwrap_or_else(|e| e.into_inner());
            links.push(Arc::new(PeerLink::new(endpoint.into())));
        }
        self.wake_flusher();
    }

    /// Claim the replicator for one server; fails while another holds it.
    pub(crate) fn claim(&self) -> io::Result<()> {
        match self.claimed.swap(true, Ordering::AcqRel) {
            false => Ok(()),
            true => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "this replicator already drives a live server's links",
            )),
        }
    }

    /// Release the claim once the owning server's reactors have stopped.
    /// Dropping the stored waker drops the replication task it wakes (its
    /// last reference once the reactor is gone), closing the peer links.
    pub(crate) fn release(&self) {
        drop(self.take_flush_waker());
        self.claimed.store(false, Ordering::Release);
    }

    /// Re-arm the flush waker.  Called at the top of every replication task
    /// poll, *before* the queues are inspected: an offer landing after the
    /// registration wakes the task, one landing before is visible in the
    /// queue check — no lost-wakeup window either way.
    fn register_flush_waker(&self, waker: &Waker) {
        *self.flush_waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(waker.clone());
    }

    /// Wake (and disarm) the replication task.
    fn wake_flusher(&self) {
        if let Some(waker) = self.take_flush_waker() {
            waker.wake();
        }
    }

    /// Disarm the flush waker, handing it out of the lock: waking or
    /// dropping it can run the task's destructor.
    fn take_flush_waker(&self) -> Option<Waker> {
        self.flush_waker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Offer a freshly solved forest to every peer queue (drop-oldest at the
    /// bound).  Called by [`ReplicatingService`] on the cold-miss leader
    /// path; also usable directly by custom stacks.
    pub fn offer(&self, request: MatrixRequest, forest: &Arc<PrivacyForestResponse>) {
        let links = self.links();
        if links.is_empty() {
            return;
        }
        let push = WarmPush {
            privacy_level: request.privacy_level,
            delta: request.delta,
            forest: Arc::clone(forest),
        };
        for link in links {
            link.offer(push.clone(), self.config.queue_depth);
        }
        self.wake_flusher();
    }

    /// Per-peer link counters.
    pub fn peer_stats(&self) -> Vec<PeerStats> {
        self.links().iter().map(|link| link.stats()).collect()
    }

    fn links(&self) -> Vec<Arc<PeerLink>> {
        self.links.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Service wrapper that offers every forest it generates to a [`Replicator`].
///
/// Stack it *inside* the caching layer —
/// `CachingService(ReplicatingService(ForestGenerator))` — so it runs exactly
/// on the cold-miss single-flight leader path: cache hits and coalesced
/// followers never reach it, so a key is offered to the peers once per actual
/// solve, not once per request.
pub struct ReplicatingService<S> {
    inner: S,
    replicator: Arc<Replicator>,
}

impl<S> ReplicatingService<S> {
    /// Wrap `inner`, offering its generations to `replicator`.
    pub fn new(inner: S, replicator: Arc<Replicator>) -> Self {
        Self { inner, replicator }
    }
}

impl<S: MatrixService> MatrixService for ReplicatingService<S> {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let forest = self.inner.privacy_forest(request)?;
        self.replicator.offer(request, &forest);
        Ok(forest)
    }

    fn tree(&self) -> Arc<LocationTree> {
        self.inner.tree()
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        self.inner.prior()
    }

    fn cache(&self) -> Option<&ForestCache> {
        self.inner.cache()
    }
}

/// Spawn a server's one replication task on `handle` (shard 0's reactor,
/// beside the accept loop): it drives every peer link of `replicator`,
/// pushes and liveness probes alike.  The caller has claimed the replicator;
/// releasing the claim ([`Replicator::release`]) after the reactor stops is
/// what ends the task.
pub(crate) fn spawn_replication(
    handle: &Handle,
    replicator: Arc<Replicator>,
    dispatch: Arc<ThreadPool>,
    cluster: Arc<ClusterMetrics>,
) {
    handle.spawn(ReplicationTask {
        env: LinkEnv {
            handle: handle.clone(),
            replicator,
            dispatch,
            cluster,
        },
        drivers: Vec::new(),
    });
}

/// Per-link connection state: back off, dial off-reactor, stream.
enum LinkState {
    Idle(Sleep),
    Dialing(oneshot::Receiver<Result<FrameStream, ServiceError>>),
    Streaming(Streaming),
}

/// An established peer link: its frame stream and what is in flight on it.
struct Streaming {
    io: FrameStream,
    /// Whether the queued bytes are a push, counted as sent once written.
    push_in_flight: bool,
    /// The probe loop riding this connection (`None` without a
    /// [`ReplicationConfig::health`]).
    probe: Option<LinkProbe>,
}

/// Where a streaming link's probe loop stands.
enum LinkProbe {
    /// Waiting out the probe interval before the next `Ping`.
    Next(Sleep),
    /// A `Ping` is out; its `Pong` must echo `nonce` before `deadline`.
    Awaiting { nonce: u64, deadline: Sleep },
}

struct LinkDriver {
    state: LinkState,
    backoff: Duration,
}

/// What every link of one replication task shares.
struct LinkEnv {
    handle: Handle,
    replicator: Arc<Replicator>,
    dispatch: Arc<ThreadPool>,
    cluster: Arc<ClusterMetrics>,
}

impl LinkEnv {
    fn config(&self) -> &ReplicationConfig {
        &self.replicator.config
    }

    /// Count one probe outcome and feed it to the peer's health state (a
    /// no-op without a health config).
    fn observe(&self, link: &PeerLink, ok: bool) {
        if let Some(health) = &self.config().health {
            ClusterMetrics::count(&self.cluster.probes_sent);
            self.cluster.observe(&link.health, ok, health);
        }
    }
}

/// Reactor task driving the peer links of one [`Replicator`]: driver `i` is
/// link `i`, and a peer added after bind gets its driver on the next poll.
///
/// Blocking work (connect + hello) runs on the dispatch pool and returns via
/// a oneshot as a [`FrameStream`]; the reactor only ever does nonblocking
/// reads and writes through it.  A link failure (a dead socket, or an
/// unexpected, malformed or oversized frame) returns the driver to `Idle`
/// with doubled backoff — queued pushes survive the outage (up to the
/// drop-oldest bound) and flush once the peer is back.
///
/// With a [`ReplicationConfig::health`], every link stays connected and
/// probes ride it: a `Ping` every probe interval, answered by a `Pong` within
/// the probe timeout, on the same connection that carries the pushes.  A
/// missed pong, a dead socket and a failed dial each count as a failed probe;
/// a matching pong counts as a successful one.
///
/// The task is fully event-driven: offers and new peers wake it through the
/// replicator's flush waker, streaming sockets park on kernel readiness
/// ([`Handle::park_socket`]), and backoffs and probe deadlines sit in the
/// executor's deadline heap — it never asks for tick service, so an idle
/// cluster reactor stays blocked until its next deadline.
struct ReplicationTask {
    env: LinkEnv,
    drivers: Vec<LinkDriver>,
}

impl Future for ReplicationTask {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.env.handle.is_shutdown() {
            return Poll::Ready(());
        }
        // Register for offer/add_peer wakes *before* inspecting any queue
        // (see register_flush_waker for the ordering argument).
        this.env.replicator.register_flush_waker(cx.waker());
        let links = this.env.replicator.links();
        // Links only ever append.  A fresh link may dial immediately
        // (zero-length backoff sleep).
        while this.drivers.len() < links.len() {
            this.drivers.push(LinkDriver {
                state: LinkState::Idle(this.env.handle.sleep(Duration::ZERO)),
                backoff: this.env.config().retry_backoff,
            });
        }
        let mut progress = true;
        while progress {
            progress = false;
            for (driver, link) in this.drivers.iter_mut().zip(&links) {
                progress |= driver.step(link, &this.env, cx);
            }
        }
        // Streaming links park on their socket (read: pongs and EOF; write:
        // only while bytes are actually blocked).  Idle links wait on the
        // backoff timer or the flush waker, Dialing on its oneshot.
        for driver in &this.drivers {
            if let LinkState::Streaming(streaming) = &driver.state {
                this.env.handle.park_socket(
                    streaming.io.fd(),
                    true,
                    !streaming.io.is_flushed(),
                    cx.waker(),
                );
            }
        }
        Poll::Pending
    }
}

impl LinkDriver {
    /// Advance the link's state machine; returns whether progress was made.
    fn step(&mut self, link: &PeerLink, env: &LinkEnv, cx: &mut Context<'_>) -> bool {
        let config = env.config();
        match &mut self.state {
            LinkState::Idle(retry) => {
                if Pin::new(retry).poll(cx).is_pending() {
                    return false;
                }
                // Without probing, a link with nothing queued stays idle
                // until an offer wakes the task instead of dialing a peer we
                // have nothing to say to (the expired sleep stays in place,
                // polling Ready whenever the task next runs).  A probed link
                // always dials: its pings need the connection.
                if config.health.is_none() && link.is_queue_empty() {
                    return false;
                }
                let (tx, rx) = oneshot::channel();
                let endpoint = link.endpoint.clone();
                let config = config.clone();
                env.dispatch.execute(move || {
                    let _ = tx.send(dial_peer(&endpoint, &config));
                });
                self.state = LinkState::Dialing(rx);
                true
            }
            LinkState::Dialing(rx) => match Pin::new(rx).poll(cx) {
                Poll::Ready(Ok(Ok(io))) => {
                    link.connects.fetch_add(1, Ordering::Relaxed);
                    self.backoff = config.retry_backoff;
                    self.state = LinkState::Streaming(Streaming {
                        io,
                        push_in_flight: false,
                        // A fresh link probes at once: its first pong is what
                        // starts re-admitting a recovering peer.
                        probe: config
                            .health
                            .as_ref()
                            .map(|_| LinkProbe::Next(env.handle.sleep(Duration::ZERO))),
                    });
                    true
                }
                Poll::Ready(_) => {
                    self.fail(link, env);
                    true
                }
                Poll::Pending => false,
            },
            LinkState::Streaming(streaming) => match streaming.step(link, env, cx) {
                Ok(progress) => progress,
                Err(_) => {
                    self.fail(link, env);
                    true
                }
            },
        }
    }

    /// Tear the link down to `Idle` with doubled backoff.  With probing on,
    /// the failure is a failed probe and the wait never outgrows the probe
    /// interval: the next dial *is* the next probe.
    fn fail(&mut self, link: &PeerLink, env: &LinkEnv) {
        link.link_errors.fetch_add(1, Ordering::Relaxed);
        env.observe(link, false);
        if let LinkState::Streaming(streaming) = &self.state {
            // The stream closes when the state is replaced below; drop its
            // readiness registration first (see ConnectionTask::drop).
            env.handle.deregister_socket(streaming.io.fd());
        }
        let config = env.config();
        let wait = match &config.health {
            Some(health) => self.backoff.min(health.probe_interval),
            None => self.backoff,
        };
        self.state = LinkState::Idle(env.handle.sleep(wait));
        self.backoff = (self.backoff * 2).min(PEER_MAX_BACKOFF);
    }
}

impl Streaming {
    /// Take in pongs, run the probe loop, stream queued pushes.  An error
    /// means the link is dead.
    fn step(
        &mut self,
        link: &PeerLink,
        env: &LinkEnv,
        cx: &mut Context<'_>,
    ) -> Result<bool, ServiceError> {
        let mut progress = false;
        self.io.read_available()?;
        // Pongs are the only frames a peer sends on a link — apart from a
        // structured error right before it hangs up, which fails the link
        // like any other unexpected frame.  An error drops the link, read
        // buffer and all, so only a clean pass gives the buffer back.
        let mut pass = self.io.begin_pass();
        while let Some((kind, payload)) = self.io.next_frame(&mut pass)? {
            progress = true;
            if kind != FrameKind::Pong {
                return Err(ServiceError::transport(format!(
                    "unexpected {kind:?} frame on a peer link"
                )));
            }
            let pong: Pong = WireCodec::Binary.decode_payload(payload)?;
            let awaited = matches!(
                &self.probe,
                Some(LinkProbe::Awaiting { nonce, .. }) if *nonce == pong.nonce
            );
            let Some(health) = env.config().health.as_ref().filter(|_| awaited) else {
                return Err(ServiceError::transport("unsolicited pong on a peer link"));
            };
            env.observe(link, true);
            self.probe = Some(LinkProbe::Next(env.handle.sleep(health.probe_interval)));
        }
        self.io.end_pass(pass);
        if let (Some(probe), Some(health)) = (&mut self.probe, &env.config().health) {
            match probe {
                LinkProbe::Awaiting { deadline, .. } => {
                    if Pin::new(deadline).poll(cx).is_ready() {
                        return Err(ServiceError::transport("probe timed out"));
                    }
                }
                // The ping waits for the socket to take any push in flight.
                LinkProbe::Next(next) => {
                    if self.io.is_flushed() && Pin::new(next).poll(cx).is_ready() {
                        let ping = Ping::fresh();
                        self.io
                            .enqueue(self.io.seal(WireCodec::Binary.encode_frame(&ping)));
                        *probe = LinkProbe::Awaiting {
                            nonce: ping.nonce,
                            deadline: env.handle.sleep(health.probe_timeout),
                        };
                        progress = true;
                    }
                }
            }
        }
        loop {
            progress |= self.io.flush()?;
            if !self.io.is_flushed() {
                break;
            }
            if std::mem::take(&mut self.push_in_flight) {
                link.pushes_sent.fetch_add(1, Ordering::Relaxed);
            }
            let Some(push) = link.pop() else {
                break;
            };
            self.io
                .enqueue(self.io.seal(WireCodec::Binary.encode_frame(&push)));
            self.push_in_flight = true;
            progress = true;
        }
        Ok(progress)
    }
}

/// Dial a peer link (blocking; runs on the dispatch pool): the client hello
/// of [`Conn::open`], bounded by the connect timeout — or by the probe
/// timeout, when shorter, since a probed link's dial is a probe — and handed
/// back to the reactor as a [`FrameStream`].
fn dial_peer(endpoint: &str, config: &ReplicationConfig) -> Result<FrameStream, ServiceError> {
    if let Some(plan) = &config.fault_plan {
        match plan.check(FaultSite::PeerConnect) {
            None => {}
            Some(FaultAction::Delay(pause)) => std::thread::sleep(pause),
            Some(_) => {
                return Err(ServiceError::transport(
                    "peer connect failed: injected fault",
                ))
            }
        }
    }
    let timeout = match &config.health {
        Some(health) => health.probe_timeout.min(PEER_CONNECT_TIMEOUT),
        None => PEER_CONNECT_TIMEOUT,
    };
    let client = ClientConfig {
        read_timeout: Some(timeout),
        cluster_key: config.cluster_key.clone(),
        fault_plan: config.fault_plan.clone(),
        ..ClientConfig::default()
    };
    let (conn, _) = Conn::open(endpoint, &client, Arc::default())?;
    conn.into_frame_stream(PEER_MAX_INBOUND_FRAME)
}

// ---------------------------------------------------------------------------
// Shard router
// ---------------------------------------------------------------------------

/// Rounds over the ranked shard list before a routed request gives up.
const ROUTER_RETRY_ROUNDS: usize = 3;

/// Tunables of a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard connection config (timeouts, cluster key).
    pub client: ClientConfig,
    /// Backoff before round *n* of the three rounds over the ranked shard
    /// list (doubling: `retry_backoff << (n - 1)`); backoff applies between
    /// rounds, not between shards within a round.
    pub retry_backoff: Duration,
    /// Enable health tracking (protocol 1.5): a prober thread pings every
    /// shard each interval over a connection it holds open (redialing only
    /// after a failed probe), request outcomes feed the same state machine,
    /// and routing skips `Down`/`Probation` shards *before* paying a connect
    /// timeout.  `None` (the default) is the 1.4 always-try behaviour.
    pub health: Option<HealthConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            client: ClientConfig::default(),
            retry_backoff: Duration::from_millis(25),
            health: None,
        }
    }
}

/// Per-shard connection slot and counters.
struct ShardSlot {
    endpoint: String,
    conn: Mutex<Option<Arc<TcpTransport>>>,
    requests: AtomicU64,
    connects: AtomicU64,
    link_errors: AtomicU64,
    /// Liveness state fed by the prober thread and by request outcomes;
    /// stays `Healthy` forever when [`RouterConfig::health`] is `None`.
    health: PeerHealth,
}

impl ShardSlot {
    fn new(endpoint: String) -> Self {
        Self {
            endpoint,
            conn: Mutex::new(None),
            requests: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            link_errors: AtomicU64::new(0),
            health: PeerHealth::new(),
        }
    }

    /// Feed a probe or request outcome to the shard's health state; a fresh
    /// `Down` also drops the cached connection, so no request ever reuses
    /// the dead socket.
    fn observe(&self, ok: bool, health: &HealthConfig, metrics: &ClusterMetrics) {
        if metrics.observe(&self.health, ok, health) {
            *self.conn.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    fn stats(&self) -> PeerStats {
        PeerStats {
            endpoint: self.endpoint.clone(),
            pushes_sent: 0,
            pushes_dropped: 0,
            queue_depth: 0,
            connects: self.connects.load(Ordering::Relaxed),
            link_errors: self.link_errors.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }
}

/// Memoized shard rankings: `(privacy_level, δ) → rendezvous order`.
type RankCache = Mutex<HashMap<(u8, usize), Arc<Vec<usize>>>>;

/// Client-side shard fan-out: a [`MatrixService`] that routes each request to
/// the shard owning its cache key ([`rendezvous_rank`]) and fails over to the
/// next-ranked shard when the owner sheds, dies mid-request or cannot be
/// reached.
///
/// Semantic failures — invalid requests, generation errors, version or key
/// mismatches — are returned immediately: every shard would answer the same,
/// so failing over only hides the real error.
///
/// All shards must serve the same grid and prior (the router adopts the first
/// reachable shard's tree, exactly as a single [`TcpTransport`] adopts its
/// server's).
pub struct ShardRouter {
    endpoints: Vec<String>,
    config: RouterConfig,
    /// Shared with the prober thread when [`RouterConfig::health`] is set.
    shards: Arc<Vec<ShardSlot>>,
    tree: Arc<LocationTree>,
    prior: Arc<PriorDistribution>,
    /// Memoized `(privacy_level, δ) → shard ranking`.  The endpoint set is
    /// fixed at connect time and the key space is a few hundred entries, so
    /// the cache never invalidates and is never evicted.
    rank_cache: RankCache,
    /// The router's counters, shared with the prober thread.
    metrics: Arc<ClusterMetrics>,
    /// Held for its `Drop` (which stops and joins the thread); never read.
    _prober: Option<RouterProber>,
}

/// The router's background prober thread.  It waits out each probe interval
/// on a stop channel, so dropping the router (which drops the sender) wakes
/// it at once instead of after the interval.
struct RouterProber {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for RouterProber {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn spawn_router_prober(
    shards: Arc<Vec<ShardSlot>>,
    config: &RouterConfig,
    health: HealthConfig,
    metrics: Arc<ClusterMetrics>,
) -> RouterProber {
    let (stop, stopped) = mpsc::channel::<()>();
    let client = ClientConfig {
        read_timeout: Some(health.probe_timeout),
        ..config.client.clone()
    };
    let thread = std::thread::Builder::new()
        .name("corgi-router-probe".into())
        .spawn(move || {
            // One probe connection per shard, separate from the request
            // connections so a ping never queues behind a cold solve.
            let mut probe_conns: Vec<Option<TcpTransport>> = shards.iter().map(|_| None).collect();
            loop {
                for (slot, conn) in shards.iter().zip(probe_conns.iter_mut()) {
                    // Nothing is ever sent: anything but `Empty` is the
                    // router going away.
                    if !matches!(stopped.try_recv(), Err(mpsc::TryRecvError::Empty)) {
                        return;
                    }
                    let ok = probe_shard(conn, &slot.endpoint, &client);
                    ClusterMetrics::count(&metrics.probes_sent);
                    slot.observe(ok, &health, &metrics);
                }
                if !matches!(
                    stopped.recv_timeout(health.probe_interval),
                    Err(mpsc::RecvTimeoutError::Timeout)
                ) {
                    return;
                }
            }
        })
        .expect("spawning the router probe thread");
    RouterProber {
        stop: Some(stop),
        thread: Some(thread),
    }
}

/// One liveness probe: a `Ping` over the held connection to a shard, dialing
/// it first when there is none.  Any failure — partition, refused dial,
/// timeout, bad MAC, wrong nonce — drops the connection so the next probe
/// redials, and is simply `false`: the state machine turns repetition into a
/// verdict.
fn probe_shard(conn: &mut Option<TcpTransport>, endpoint: &str, client: &ClientConfig) -> bool {
    if conn.is_none() {
        *conn = TcpTransport::connect_with(endpoint, client.clone()).ok();
    }
    let ok = conn.as_ref().is_some_and(|conn| conn.ping().is_ok());
    if !ok {
        *conn = None;
    }
    ok
}

impl ShardRouter {
    /// Connect to a shard set.  Succeeds as long as *one* endpoint is
    /// reachable (the others connect lazily on first use); fails with the
    /// last connect error when none is.
    pub fn connect<I, S>(endpoints: I, config: RouterConfig) -> Result<Self, ServiceError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let endpoints: Vec<String> = endpoints.into_iter().map(Into::into).collect();
        if endpoints.is_empty() {
            return Err(ServiceError::transport(
                "shard router needs at least one endpoint",
            ));
        }
        let shards: Arc<Vec<ShardSlot>> =
            Arc::new(endpoints.iter().cloned().map(ShardSlot::new).collect());
        let mut last_error = None;
        let mut adopted = None;
        for slot in shards.iter() {
            match connect_slot(slot, &config.client) {
                Ok(transport) => {
                    adopted = Some((transport.tree(), transport.prior()));
                    break;
                }
                Err(error) => last_error = Some(error),
            }
        }
        let Some((tree, prior)) = adopted else {
            return Err(last_error
                .unwrap_or_else(|| ServiceError::transport("no shard endpoint reachable")));
        };
        let metrics = Arc::new(ClusterMetrics::default());
        let prober = config.health.clone().map(|health| {
            spawn_router_prober(Arc::clone(&shards), &config, health, Arc::clone(&metrics))
        });
        Ok(Self {
            endpoints,
            config,
            shards,
            tree,
            prior,
            rank_cache: Mutex::new(HashMap::new()),
            metrics,
            _prober: prober,
        })
    }

    /// The configured shard endpoints, in index order.
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Router-side cluster counters: total failovers plus per-shard request,
    /// connect and link-error counts.
    pub fn cluster_stats(&self) -> ClusterStats {
        self.metrics
            .snapshot(self.shards.iter().map(ShardSlot::stats).collect())
    }

    /// The health state of each shard, in endpoint order.  Every shard
    /// reports [`Healthy`](PeerHealthState::Healthy) forever when
    /// [`RouterConfig::health`] is `None`.
    pub fn shard_health(&self) -> Vec<PeerHealthState> {
        self.shards.iter().map(|slot| slot.health.state()).collect()
    }

    /// Feed a request outcome into a slot's health cell (no-op without a
    /// health config).
    fn observe_slot(&self, slot: &ShardSlot, ok: bool) {
        if let Some(health) = &self.config.health {
            slot.observe(ok, health, &self.metrics);
        }
    }

    /// Memoized [`rendezvous_rank`] over the router's fixed endpoint set: the
    /// ranking of a key never changes, so each `(privacy_level, δ)` pays the
    /// per-endpoint FNV hashing exactly once per router.
    fn ranked_shards(&self, privacy_level: u8, delta: usize) -> Arc<Vec<usize>> {
        let mut cache = self.rank_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(order) = cache.get(&(privacy_level, delta)) {
            ClusterMetrics::count(&self.metrics.rank_memo_hits);
            return Arc::clone(order);
        }
        let order = Arc::new(rendezvous_rank(&self.endpoints, privacy_level, delta));
        cache.insert((privacy_level, delta), Arc::clone(&order));
        order
    }

    fn transport_for(&self, index: usize) -> Result<Arc<TcpTransport>, ServiceError> {
        connect_slot(&self.shards[index], &self.config.client)
    }
}

/// Get-or-establish a slot's connection (the slot mutex serializes dials, so
/// concurrent routers' threads share one connection per shard).
fn connect_slot(
    slot: &ShardSlot,
    config: &ClientConfig,
) -> Result<Arc<TcpTransport>, ServiceError> {
    let mut conn = slot.conn.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(transport) = conn.as_ref() {
        return Ok(Arc::clone(transport));
    }
    let transport = Arc::new(TcpTransport::connect_with(
        slot.endpoint.as_str(),
        config.clone(),
    )?);
    slot.connects.fetch_add(1, Ordering::Relaxed);
    *conn = Some(Arc::clone(&transport));
    Ok(transport)
}

impl MatrixService for ShardRouter {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let order = self.ranked_shards(request.privacy_level, request.delta);
        let mut last_error = ServiceError::transport("no shards configured");
        let mut first_attempt = true;
        for round in 0..ROUTER_RETRY_ROUNDS {
            if round > 0 {
                let exponent = u32::try_from(round - 1).unwrap_or(16).min(16);
                std::thread::sleep(self.config.retry_backoff * (1u32 << exponent));
            }
            // Skip Down/Probation shards *before* paying a connect timeout
            // (re-checked per round: health moves while we back off).  If
            // the prober has condemned every shard, fall back to the full
            // ranking — trying a dead shard beats refusing to try at all.
            let admitted: Vec<usize> = if self.config.health.is_some() {
                let alive: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&index| self.shards[index].health.is_admitted())
                    .collect();
                if alive.is_empty() {
                    order.to_vec()
                } else {
                    alive
                }
            } else {
                order.to_vec()
            };
            for &index in &admitted {
                if !first_attempt {
                    ClusterMetrics::count(&self.metrics.failovers);
                }
                first_attempt = false;
                let slot = &self.shards[index];
                let transport = match self.transport_for(index) {
                    Ok(transport) => transport,
                    Err(error) => {
                        slot.link_errors.fetch_add(1, Ordering::Relaxed);
                        self.observe_slot(slot, false);
                        last_error = error;
                        continue;
                    }
                };
                match transport.privacy_forest(request) {
                    Ok(forest) => {
                        slot.requests.fetch_add(1, Ordering::Relaxed);
                        self.observe_slot(slot, true);
                        return Ok(forest);
                    }
                    Err(error) => match error.kind {
                        // Every shard would answer these the same; surface
                        // the real error instead of hiding it in failover.
                        ServiceErrorKind::InvalidRequest
                        | ServiceErrorKind::Generation
                        | ServiceErrorKind::UnsupportedVersion
                        | ServiceErrorKind::Unauthenticated => return Err(error),
                        // A shed is retryable and the connection stays
                        // synchronized: keep it, try the next shard.  The
                        // shard is alive — a shed is not a health failure.
                        ServiceErrorKind::Overloaded => last_error = error,
                        // Transport failures poison the connection: drop it
                        // so the next attempt reconnects fresh.
                        ServiceErrorKind::Transport | ServiceErrorKind::Internal => {
                            slot.link_errors.fetch_add(1, Ordering::Relaxed);
                            *slot.conn.lock().unwrap_or_else(|e| e.into_inner()) = None;
                            self.observe_slot(slot, false);
                            last_error = error;
                        }
                    },
                }
            }
        }
        Err(last_error)
    }

    fn tree(&self) -> Arc<LocationTree> {
        Arc::clone(&self.tree)
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        Arc::clone(&self.prior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn rendezvous_rank_is_a_stable_permutation_that_uses_every_shard() {
        let endpoints = ["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"];
        let mut owners = std::collections::HashSet::new();
        for level in 0..4u8 {
            for delta in 0..8usize {
                let rank = rendezvous_rank(&endpoints, level, delta);
                // A permutation of all shard indices…
                let mut sorted = rank.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2]);
                // …that every caller computes identically.
                assert_eq!(rank, rendezvous_rank(&endpoints, level, delta));
                owners.insert(rank[0]);
            }
        }
        // Over a whole key grid the ownership spreads across shards.
        assert!(owners.len() > 1, "all keys landed on one shard: {owners:?}");
    }

    #[test]
    fn rendezvous_rank_spreads_keys_over_endpoints_differing_only_in_port() {
        // Loopback clusters (tests, loadgen, examples) produce endpoints that
        // differ in a handful of port digits.  Without a finalization
        // avalanche the shared key suffix preserved the relative order of
        // the endpoint hashes, electing one shard as the owner of *every*
        // key — a routing monoculture that turned the cluster into a single
        // hot shard.
        let endpoints = ["127.0.0.1:39147", "127.0.0.1:40765", "127.0.0.1:44057"];
        let mut owners = std::collections::HashSet::new();
        for delta in 0..10usize {
            owners.insert(rendezvous_rank(&endpoints, 1, delta)[0]);
        }
        assert!(
            owners.len() > 1,
            "every key elected the same owner: {owners:?}"
        );
    }

    #[test]
    fn removing_an_endpoint_only_remaps_its_own_keys() {
        let full = ["s1:1", "s2:1", "s3:1"];
        let reduced = ["s1:1", "s2:1"];
        for level in 0..3u8 {
            for delta in 0..8usize {
                let before = rendezvous_rank(&full, level, delta);
                let after = rendezvous_rank(&reduced, level, delta);
                if before[0] != 2 {
                    // Keys not owned by the removed shard keep their owner.
                    assert_eq!(after[0], before[0], "key ({level},{delta}) moved");
                }
            }
        }
    }

    #[test]
    fn replication_queue_is_bounded_and_drops_oldest() {
        let replicator = Replicator::new(ReplicationConfig {
            queue_depth: 2,
            ..ReplicationConfig::default()
        });
        replicator.add_peer("127.0.0.1:1");
        let grid =
            corgi_hexgrid::HexGrid::new(corgi_hexgrid::HexGridConfig::san_francisco()).unwrap();
        let root = grid.cells_at_level(1)[0];
        let forests: Vec<Arc<PrivacyForestResponse>> = (0..5usize)
            .map(|delta| {
                Arc::new(PrivacyForestResponse {
                    request: MatrixRequest {
                        privacy_level: 1,
                        delta,
                    },
                    epsilon: 15.0,
                    entries: vec![crate::messages::ForestEntry {
                        subtree_root: root,
                        matrix: corgi_core::ObfuscationMatrix::uniform(root.descendant_leaves())
                            .unwrap(),
                    }],
                })
            })
            .collect();
        for forest in &forests {
            replicator.offer(forest.request, forest);
        }
        let stats = replicator.peer_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].queue_depth, 2);
        assert_eq!(stats[0].pushes_dropped, 3);
        // The survivors are the *newest* pushes, each sharing its forest
        // with the pushing cache instead of copying it.
        let link = &replicator.links()[0];
        for delta in [3, 4] {
            let push = link.pop().unwrap();
            assert_eq!(push.delta, delta);
            assert!(Arc::ptr_eq(&push.forest, &forests[delta]));
        }
        assert!(link.pop().is_none());
    }

    #[test]
    fn shard_rankings_are_memoized_per_key() {
        use corgi_hexgrid::{HexGrid, HexGridConfig};
        let endpoints: Vec<String> = (0..4).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let router = ShardRouter {
            endpoints: endpoints.clone(),
            config: RouterConfig::default(),
            shards: Arc::new(endpoints.iter().cloned().map(ShardSlot::new).collect()),
            tree: Arc::new(corgi_core::LocationTree::new(grid)),
            prior: Arc::new(PriorDistribution::uniform(16)),
            rank_cache: Mutex::new(HashMap::new()),
            metrics: Arc::default(),
            _prober: None,
        };
        for _ in 0..3 {
            for delta in 0..5usize {
                let order = router.ranked_shards(1, delta);
                assert_eq!(*order, rendezvous_rank(&endpoints, 1, delta));
            }
        }
        // Five distinct keys hash once each; the other ten lookups memo-hit.
        let stats = router.cluster_stats();
        assert_eq!(stats.rank_memo_hits, 10);
        assert_eq!(
            router
                .rank_cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
            5
        );
    }

    #[test]
    fn health_state_machine_follows_the_documented_transitions() {
        let config = HealthConfig {
            failure_threshold: 3,
            probation_successes: 2,
            ..HealthConfig::default()
        };
        let health = PeerHealth::new();
        assert_eq!(health.state(), PeerHealthState::Healthy);
        assert!(health.is_admitted());

        // Failures walk Healthy → Suspect(1) → Suspect(2) → Down; only the
        // threshold-crossing observation reports a fresh outage.
        assert!(!health.observe(false, &config));
        assert_eq!(health.state(), PeerHealthState::Suspect(1));
        assert!(health.is_admitted(), "suspicion is not yet a verdict");
        assert!(!health.observe(false, &config));
        assert_eq!(health.state(), PeerHealthState::Suspect(2));
        assert!(health.observe(false, &config), "third strike goes Down");
        assert_eq!(health.state(), PeerHealthState::Down);
        assert!(!health.is_admitted());
        assert!(
            !health.observe(false, &config),
            "already down: not a new outage"
        );

        // Recovery: Down → Probation(1) → Healthy after the success streak;
        // probation peers stay excluded until the streak completes.
        assert!(!health.observe(true, &config));
        assert_eq!(health.state(), PeerHealthState::Probation(1));
        assert!(!health.is_admitted(), "probation is still skipped");
        assert!(!health.observe(true, &config));
        assert_eq!(health.state(), PeerHealthState::Healthy);
        assert!(health.is_admitted());

        // A probation stumble drops straight back to Down (silently).
        health.observe(false, &config);
        health.observe(false, &config);
        health.observe(false, &config);
        health.observe(true, &config);
        assert_eq!(health.state(), PeerHealthState::Probation(1));
        assert!(!health.observe(false, &config));
        assert_eq!(health.state(), PeerHealthState::Down);

        // A suspect peer that answers again snaps back to Healthy.
        let flaky = PeerHealth::new();
        flaky.observe(false, &config);
        assert!(!flaky.observe(true, &config));
        assert_eq!(flaky.state(), PeerHealthState::Healthy);
    }

    #[test]
    fn cluster_stats_roundtrip_through_json() {
        let stats = ClusterStats {
            pushes_received: 7,
            pushes_deduped: 3,
            auth_rejections: 2,
            failovers: 4,
            rank_memo_hits: 6,
            probes_sent: 11,
            peers_down: 1,
            rewarm_keys_pulled: 5,
            pushes_repaired: 2,
            peers: vec![PeerStats {
                endpoint: "127.0.0.1:7001".into(),
                pushes_sent: 9,
                pushes_dropped: 1,
                queue_depth: 0,
                connects: 2,
                link_errors: 1,
                requests: 0,
            }],
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ClusterStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);

        let report = StatsReport {
            transport: TransportStats::default(),
            cache: None,
            cluster: Some(stats),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
