//! Cache warming: precompute privacy forests so steady-state traffic is
//! cache-hit dominated.
//!
//! The key space of the serving cache is tiny — a [`CachingService`] key is
//! `(privacy_level, δ)`, the tree has a handful of levels and δ is bounded by
//! the subtree size — so the *entire* working set can be precomputed.  A
//! [`WarmRequest`] names the grid of keys to solve; [`warm()`] pushes every key
//! through the service (whose generator fans the per-subtree LP solves out
//! over its worker pool) and the wrapping [`CachingService`] retains the
//! results.  After a full warm, every request in the grid is a cache hit and
//! the steady-state path performs no LP solves at all.
//!
//! Warming runs in two places:
//!
//! * **at startup** — [`TransportConfig::warm_on_start`] hands a plan to
//!   [`TcpServer::bind`], which solves it on the dispatch pool while the
//!   reactor is already accepting connections;
//! * **on demand** — a client sends the plan as a `Warm` frame and receives a
//!   [`WarmReport`] once the grid is solved ([`TcpTransport::warm`]).
//!
//! [`CachingService`]: crate::CachingService
//! [`TransportConfig::warm_on_start`]: crate::TransportConfig::warm_on_start
//! [`TcpServer::bind`]: crate::TcpServer::bind
//! [`TcpTransport::warm`]: crate::TcpTransport::warm

use crate::messages::{MatrixRequest, PrivacyForestResponse, ServiceError};
use crate::service::MatrixService;
use corgi_core::LocationTree;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// A warming plan: the `(privacy_level, δ)` grid to precompute.
///
/// The plan is the cartesian product `privacy_levels × deltas`; every pair
/// becomes one [`MatrixRequest`] pushed through the service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmRequest {
    /// Privacy levels to warm (each selects one privacy forest).
    pub privacy_levels: Vec<u8>,
    /// δ values to warm per level (each is a distinct cache key).
    pub deltas: Vec<usize>,
}

impl WarmRequest {
    /// A plan covering one privacy level for δ ∈ `0..=max_delta`.
    pub fn level(privacy_level: u8, max_delta: usize) -> Self {
        Self {
            privacy_levels: vec![privacy_level],
            deltas: (0..=max_delta).collect(),
        }
    }

    /// The full steady-state grid of a tree: every privacy level the tree
    /// serves (via [`LocationTree::privacy_levels`]) crossed with
    /// δ ∈ `0..=max_delta`.
    ///
    /// Warming the root level solves the single full-tree LP (the K = 1,
    /// 343-leaf regime), which is by far the most expensive key; callers that
    /// only serve lower levels should enumerate those explicitly.
    pub fn full_grid(tree: &LocationTree, max_delta: usize) -> Self {
        Self {
            privacy_levels: tree.privacy_levels(),
            deltas: (0..=max_delta).collect(),
        }
    }

    /// Number of `(privacy_level, δ)` keys in the plan.
    pub fn key_count(&self) -> usize {
        self.privacy_levels.len() * self.deltas.len()
    }

    /// The requests of the plan, cheapest level first so partial warms (or an
    /// early shutdown) still populate the high-traffic low-K keys.  Duplicate
    /// levels and deltas collapse, so repeated entries cannot inflate work.
    ///
    /// Within one level the δ values are swept in ascending order, which is
    /// what makes whole-grid warming one-cold-plus-refinements: the
    /// generator's warm-seed store hands every `(level, δ)` subtree solve the
    /// converged iterate of its nearest already-solved δ neighbour (δ−1 under
    /// this ordering), so only the first δ of each level pays a cold
    /// interior-point solve.
    pub fn requests(&self) -> Vec<MatrixRequest> {
        let mut levels = self.privacy_levels.clone();
        levels.sort_unstable();
        levels.dedup();
        let mut deltas = self.deltas.clone();
        deltas.sort_unstable();
        deltas.dedup();
        let mut requests = Vec::with_capacity(levels.len() * deltas.len());
        for &privacy_level in &levels {
            for &delta in &deltas {
                requests.push(MatrixRequest {
                    privacy_level,
                    delta,
                });
            }
        }
        requests
    }
}

/// Asynchronous peer-to-peer cache replication (protocol 1.4): after a cold
/// miss completes on one shard, the shard pushes the key and the solved
/// forest to its peers so the *same* key is a warm hit cluster-wide without a
/// second LP solve.
///
/// A push is advisory and fire-and-forget: there is no reply frame, a peer
/// that already holds the key counts a dedup and drops it, and a peer without
/// a caching layer ignores it.  A push never makes the receiving peer solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmPush {
    /// Privacy level of the replicated cache key.
    pub privacy_level: u8,
    /// δ of the replicated cache key.
    pub delta: usize,
    /// The solved forest, shared (not deep-copied) with the pushing shard's
    /// cache.
    pub forest: Arc<PrivacyForestResponse>,
}

impl WarmPush {
    /// The cache key this push replicates.
    pub fn request(&self) -> MatrixRequest {
        MatrixRequest {
            privacy_level: self.privacy_level,
            delta: self.delta,
        }
    }
}

/// Anti-entropy digest exchange (protocol 1.5): ask a peer what its cache
/// holds, or pull one resident key from it.
///
/// A restarted shard rejoins warm by sending an empty request (`pull: None`)
/// to each healthy peer, diffing the returned key summary against its own
/// cache, and pulling each missing key with `pull: Some(key)` — the reply
/// then carries the peer's resident forest, inserted into the local
/// [`ForestCache`](crate::ForestCache) (reached through
/// [`MatrixService::cache`]).  The whole flow is cache-only on both
/// sides: re-joining costs network transfer, never an LP solve.  See
/// [`TcpServer::rewarm_from_peers`](crate::TcpServer::rewarm_from_peers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigestRequest {
    /// `None` asks for the summary of resident keys; `Some(key)` pulls that
    /// key's forest (cache-only — a key the peer does not hold comes back
    /// with an absent forest, never a solve).
    pub pull: Option<MatrixRequest>,
}

/// Reply to a [`DigestRequest`]: a summary of resident cache keys, or one
/// pulled forest.
///
/// Bounded like `Warm` frames: a server truncates `keys` to its 1024-key
/// warm limit (a digest is advisory — a truncated one just re-warms less, it
/// never breaks correctness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigestReply {
    /// The replying cache's generation counter: it advances on every insert,
    /// so a puller can cheaply detect that a digest went stale mid-pull and
    /// re-fetch the summary.
    pub generation: u64,
    /// Resident `(privacy_level, δ)` keys (empty in a pull reply).
    pub keys: Vec<MatrixRequest>,
    /// The pulled forest (`None` in a summary reply, or when the pulled key
    /// was evicted between the digest and the pull).
    pub forest: Option<Arc<PrivacyForestResponse>>,
}

/// Outcome of an anti-entropy re-warm
/// ([`TcpServer::rewarm_from_peers`](crate::TcpServer::rewarm_from_peers)).
#[derive(Debug, Clone, PartialEq)]
pub struct RewarmReport {
    /// Peers whose digest was fetched successfully.
    pub peers_reached: usize,
    /// Distinct keys the digests named that were missing locally.  A key
    /// the peer evicted before the pull, or that became resident locally
    /// while its pull was in flight, leaves this count.
    pub missing: usize,
    /// Keys pulled and inserted into the local cache.
    pub pulled: usize,
    /// Keys named by a digest but already resident locally: before the run,
    /// pulled from an earlier peer in the same run, or cached by live
    /// traffic while their pull was in flight.
    pub already_resident: usize,
    /// What failed, with its error: a peer that could not be reached or
    /// digested (recorded under key `(0, 0)`), a pull that failed, or a pull
    /// the peer answered with another key's forest.
    pub failures: Vec<WarmFailure>,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: u64,
}

impl RewarmReport {
    /// Whether every missing key named by a reachable peer was pulled.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.pulled == self.missing
    }
}

/// One key of a [`WarmRequest`] that failed to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmFailure {
    /// The privacy level of the failed key.
    pub privacy_level: u8,
    /// The δ of the failed key.
    pub delta: usize,
    /// Why generation failed.
    pub error: ServiceError,
}

/// Outcome of a warming run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmReport {
    /// Keys named by the plan.
    pub requested: usize,
    /// Keys whose forest was generated (or already resident) successfully.
    pub warmed: usize,
    /// Keys that failed, with their errors (e.g. a privacy level above the
    /// tree height).  Failures do not abort the run: the remaining grid is
    /// still warmed.
    pub failures: Vec<WarmFailure>,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: u64,
}

impl WarmReport {
    /// Whether every key of the plan was warmed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.warmed == self.requested
    }
}

/// Execute a warming plan against a service, returning per-key outcomes.
///
/// Each key goes through [`MatrixService::privacy_forest`], so a caching layer
/// in the stack retains every generated forest and concurrent live traffic for
/// the same key coalesces onto the warming flight instead of solving twice.
/// The call blocks until the whole grid is processed; run it on a worker
/// thread (the server's dispatch pool does) when that matters.
pub fn warm(service: &dyn MatrixService, plan: &WarmRequest) -> WarmReport {
    let start = Instant::now();
    let requests = plan.requests();
    let requested = requests.len();
    let mut warmed = 0usize;
    let mut failures = Vec::new();
    for request in requests {
        match service.privacy_forest(request) {
            Ok(_) => warmed += 1,
            Err(error) => failures.push(WarmFailure {
                privacy_level: request.privacy_level,
                delta: request.delta,
                error,
            }),
        }
    }
    WarmReport {
        requested,
        warmed,
        failures,
        elapsed_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachingService, ForestGenerator, ServerConfig};
    use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
    use corgi_hexgrid::{HexGrid, HexGridConfig};

    fn caching_service() -> CachingService<ForestGenerator> {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        CachingService::with_defaults(ForestGenerator::new(
            corgi_core::LocationTree::new(grid),
            prior,
            ServerConfig {
                robust_iterations: 1,
                targets_per_subtree: 3,
                worker_threads: 2,
                ..ServerConfig::default()
            },
        ))
    }

    #[test]
    fn warming_populates_the_cache_and_turns_requests_into_hits() {
        let service = caching_service();
        let plan = WarmRequest {
            privacy_levels: vec![1, 2],
            deltas: vec![0, 1],
        };
        let report = warm(&service, &plan);
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        assert_eq!(report.requested, 4);
        assert_eq!(report.warmed, 4);
        let after_warm = service.cache_stats().unwrap();
        assert_eq!(after_warm.entries, 4);

        // Steady state: every key of the grid is now a pure cache hit.
        for request in plan.requests() {
            service.privacy_forest(request).unwrap();
        }
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, after_warm.misses, "no new generations");
    }

    #[test]
    fn warm_failures_are_reported_but_do_not_abort() {
        let service = caching_service();
        let plan = WarmRequest {
            privacy_levels: vec![1, 9], // level 9 exceeds the tree height
            deltas: vec![0],
        };
        let report = warm(&service, &plan);
        assert_eq!(report.requested, 2);
        assert_eq!(report.warmed, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].privacy_level, 9);
        assert!(!report.is_complete());
        assert_eq!(service.cache_stats().unwrap().entries, 1);
    }

    #[test]
    fn full_grid_enumerates_every_tree_level() {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let tree = corgi_core::LocationTree::new(grid);
        let plan = WarmRequest::full_grid(&tree, 2);
        assert_eq!(plan.privacy_levels, vec![0, 1, 2, 3]);
        assert_eq!(plan.key_count(), 12);
        // Requests come cheapest-level-first and duplicate levels collapse.
        let dup = WarmRequest {
            privacy_levels: vec![2, 1, 2],
            deltas: vec![0],
        };
        let requests = dup.requests();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].privacy_level, 1);
    }

    #[test]
    fn warm_messages_roundtrip_through_json() {
        let plan = WarmRequest::level(1, 2);
        let json = serde_json::to_string(&plan).unwrap();
        let back: WarmRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);

        let report = WarmReport {
            requested: 3,
            warmed: 2,
            failures: vec![WarmFailure {
                privacy_level: 9,
                delta: 0,
                error: ServiceError::new(
                    crate::messages::ServiceErrorKind::InvalidRequest,
                    "level 9",
                ),
            }],
            elapsed_ms: 1234,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: WarmReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);

        // A push round-trips with its forest.
        let request = MatrixRequest {
            privacy_level: 1,
            delta: 2,
        };
        let push = WarmPush {
            privacy_level: 1,
            delta: 2,
            forest: Arc::new(PrivacyForestResponse {
                request,
                epsilon: 15.0,
                entries: Vec::new(),
            }),
        };
        let json = serde_json::to_string(&push).unwrap();
        let back: WarmPush = serde_json::from_str(&json).unwrap();
        assert_eq!(back, push);
        assert_eq!(back.request(), request);
    }
}
