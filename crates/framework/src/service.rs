//! The serving stack: [`MatrixService`] and its layered implementations.
//!
//! The paper's deployment (Section 5, Fig. 1) is one untrusted server producing
//! privacy forests for many users, so the serving API is an abstract trait with
//! two compositional layers and one cache:
//!
//! * [`ForestGenerator`] — the raw compute path of Algorithm 3; the K
//!   independent per-subtree LP solves fan out across a fixed-size
//!   [`ThreadPool`](crate::ThreadPool);
//! * [`CachingService`] — serves any inner service through a [`ForestCache`],
//!   so N concurrent requests for the same key trigger exactly one
//!   generation;
//! * [`ForestCache`] — the one cache type: a capacity-bounded LRU keyed by
//!   `(privacy_level, δ)` under one lock, with an exact bound and
//!   single-flight deduplication, holding each resident forest beside its
//!   binary body.  Everything that reads or writes the cache from outside
//!   the stack — the server's inline resident hits, `WarmPush` replication,
//!   anti-entropy digests and re-warm — reaches it through
//!   [`MatrixService::cache`].
//!
//! A production stack composes them inside an `Arc<dyn MatrixService>`:
//! `CachingService<ForestGenerator>`.

use crate::codec::ForestBody;
use crate::messages::{
    ForestEntry, MatrixRequest, PrivacyForestResponse, RequestEnvelope, ResponseEnvelope,
    ServiceError, PROTOCOL_VERSION,
};
use crate::pool::ThreadPool;
use crate::server::ServerConfig;
use corgi_core::{
    generate_robust_matrix_warm, CorgiError, LocationTree, ObfuscationProblem, RobustConfig,
    Subtree, WarmStart,
};
use corgi_datagen::PriorDistribution;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The abstract serving boundary of the CORGI server (step ④/⑤ of Fig. 1).
///
/// Implementations are layered by composition; callers hold the stack as an
/// `Arc<dyn MatrixService>` and stay agnostic of caching or the compute path
/// behind it.
///
/// ```
/// use corgi_framework::messages::{MatrixRequest, RequestEnvelope};
/// use corgi_framework::{CachingService, ForestGenerator, MatrixService, ServerConfig};
/// use corgi_core::LocationTree;
/// use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
/// use corgi_hexgrid::{HexGrid, HexGridConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = HexGrid::new(HexGridConfig::san_francisco())?;
/// let (dataset, _) =
///     GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
/// let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
/// let config =
///     ServerConfig { epsilon: 15.0, targets_per_subtree: 5, ..ServerConfig::default() };
///
/// // Compose the serving stack behind the trait object.
/// let service: Arc<dyn MatrixService> = Arc::new(CachingService::with_defaults(
///     ForestGenerator::new(LocationTree::new(grid), prior, config),
/// ));
///
/// // Wire-level entry point: versioned envelope in, versioned envelope out.
/// let request = MatrixRequest { privacy_level: 1, delta: 0 };
/// let reply = service.handle_envelope(&RequestEnvelope::new(7, request));
/// assert_eq!(reply.request_id, 7);
/// let forest = reply.into_result()?;
/// assert_eq!(forest.entries.len(), 49); // one matrix per level-1 subtree
/// # Ok(())
/// # }
/// ```
pub trait MatrixService: Send + Sync {
    /// Serve a privacy-forest request (Algorithm 3).
    ///
    /// The response is shared (`Arc`) so caching layers can hand the same
    /// generated forest to any number of concurrent callers.
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError>;

    /// The public location tree shared with clients (step ② of Fig. 1).
    fn tree(&self) -> Arc<LocationTree>;

    /// The public prior distribution over leaf cells.
    fn prior(&self) -> Arc<PriorDistribution>;

    /// Wire-level entry point: checks protocol compatibility, dispatches to
    /// [`MatrixService::privacy_forest`] and wraps the outcome in a versioned
    /// [`ResponseEnvelope`] echoing the request id.
    fn handle_envelope(&self, envelope: &RequestEnvelope) -> ResponseEnvelope {
        if !PROTOCOL_VERSION.is_compatible_with(&envelope.version) {
            return ResponseEnvelope::error(
                envelope.request_id,
                ServiceError::unsupported_version(envelope.version),
            );
        }
        match self.privacy_forest(envelope.request) {
            Ok(forest) => ResponseEnvelope::forest(envelope.request_id, forest),
            Err(error) => ResponseEnvelope::error(envelope.request_id, error),
        }
    }

    /// The stack's forest cache, if a layer holds one.
    ///
    /// This is the one way into the cache from outside the stack: the
    /// server's inline resident hits, `WarmPush` replication, digests and
    /// re-warm all go through it.  [`CachingService`] returns its cache; a
    /// wrapping service forwards its inner service's.  The default (`None`)
    /// marks a stack without a cache.
    fn cache(&self) -> Option<&ForestCache> {
        None
    }

    /// A snapshot of the stack's cache counters, `None` without a cache.
    ///
    /// This is what a server reports in a wire `StatsReply`.  Provided over
    /// [`MatrixService::cache`]; implementations do not override it.
    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache().map(ForestCache::stats)
    }

    /// The cached forest for `request`, if resident: the uncounted peek of
    /// [`ForestCache::resident`].  Provided over [`MatrixService::cache`];
    /// implementations do not override it.
    fn resident(&self, request: MatrixRequest) -> Option<Arc<PrivacyForestResponse>> {
        self.cache()?.resident(request)
    }
}

/// Outcome of [`ForestCache::warm_insert`]: what the cache did with a forest
/// replicated from a cluster peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmInsertOutcome {
    /// The forest is now resident; a future request for its key is a hit.
    Inserted,
    /// The key was already cached — the push deduplicated.
    AlreadyResident,
}

impl<S: MatrixService + ?Sized> MatrixService for Arc<S> {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        (**self).privacy_forest(request)
    }

    fn tree(&self) -> Arc<LocationTree> {
        (**self).tree()
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        (**self).prior()
    }

    fn handle_envelope(&self, envelope: &RequestEnvelope) -> ResponseEnvelope {
        (**self).handle_envelope(envelope)
    }

    fn cache(&self) -> Option<&ForestCache> {
        (**self).cache()
    }
}

// ---------------------------------------------------------------------------
// ForestGenerator — the raw compute path
// ---------------------------------------------------------------------------

/// The raw compute path of Algorithm 3: owns the location tree, the public
/// prior and the server configuration, and generates one robust matrix per
/// subtree of the requested privacy forest.
///
/// The K subtree LPs are independent, so they fan out across a fixed-size
/// worker pool sized by [`ServerConfig::worker_threads`] (0 = one worker per
/// available core).  Generation is deterministic: the per-subtree target seed
/// is derived from `target_seed ^ subtree_root`, so the same configuration
/// yields bit-identical forests on any pool size, including the serial path.
pub struct ForestGenerator {
    tree: Arc<LocationTree>,
    prior: Arc<PriorDistribution>,
    config: ServerConfig,
    pool: ThreadPool,
    seeds: Arc<WarmSeedStore>,
}

impl ForestGenerator {
    /// Create a generator over a location tree with a public prior distribution.
    pub fn new(tree: LocationTree, prior: PriorDistribution, config: ServerConfig) -> Self {
        Self {
            pool: ThreadPool::new(config.worker_threads),
            tree: Arc::new(tree),
            prior: Arc::new(prior),
            config,
            seeds: Arc::new(WarmSeedStore::default()),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of worker threads solving subtree LPs.
    pub fn worker_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Warm-start statistics of the generator's seed store: how many subtree
    /// solves were seeded from a neighbouring `(privacy_level, δ)` iterate vs
    /// started cold.
    pub fn warm_stats(&self) -> WarmSeedStats {
        self.seeds.stats()
    }

    /// Generate the privacy forest for a request, fanning the per-subtree LP
    /// solves out across the worker pool.
    pub fn generate(&self, request: MatrixRequest) -> Result<PrivacyForestResponse, CorgiError> {
        let forest = self.tree.privacy_forest(request.privacy_level)?;
        let tasks: Vec<_> = forest
            .into_iter()
            .map(|subtree| {
                let tree = Arc::clone(&self.tree);
                let prior = Arc::clone(&self.prior);
                let config = self.config;
                let seeds = Arc::clone(&self.seeds);
                move || solve_subtree(&tree, &prior, &config, &seeds, &subtree, request)
            })
            .collect();
        let entries = self
            .pool
            .try_run_ordered(tasks)
            .into_iter()
            // A panicking subtree solve becomes a structured solver error (and
            // the worker survives) instead of unwinding through a long-lived
            // serving thread.
            .map(|outcome| {
                outcome.unwrap_or_else(|panic| Err(CorgiError::Solver(panic.to_string())))
            })
            .collect::<Result<Vec<ForestEntry>, CorgiError>>()?;
        Ok(PrivacyForestResponse {
            request,
            epsilon: self.config.epsilon,
            entries,
        })
    }

    /// Generate the privacy forest on the calling thread, one subtree at a
    /// time.  Produces bit-identical output to [`ForestGenerator::generate`]
    /// given the same warm-seed history (the subtrees of one request have
    /// distinct roots, so the per-subtree seed lookups never observe the same
    /// request's own inserts on either path); kept as the baseline for the
    /// concurrent-vs-serial benchmark.
    pub fn generate_serial(
        &self,
        request: MatrixRequest,
    ) -> Result<PrivacyForestResponse, CorgiError> {
        let forest = self.tree.privacy_forest(request.privacy_level)?;
        let entries = forest
            .iter()
            .map(|subtree| {
                solve_subtree(
                    &self.tree,
                    &self.prior,
                    &self.config,
                    &self.seeds,
                    subtree,
                    request,
                )
            })
            .collect::<Result<Vec<ForestEntry>, CorgiError>>()?;
        Ok(PrivacyForestResponse {
            request,
            epsilon: self.config.epsilon,
            entries,
        })
    }

    /// Build the LP instance for one subtree: restricted prior + randomly chosen
    /// target locations (the paper samples `NR_TARGET` leaf nodes as targets).
    ///
    /// The shuffle seed is derived from `target_seed ^ subtree_root`, so
    /// distinct subtrees pick distinct target index sets while the whole forest
    /// stays deterministic.
    pub fn problem_for_subtree(&self, subtree: &Subtree) -> Result<ObfuscationProblem, CorgiError> {
        problem_for_subtree(&self.tree, &self.prior, &self.config, subtree)
    }
}

impl MatrixService for ForestGenerator {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        Ok(Arc::new(self.generate(request)?))
    }

    fn tree(&self) -> Arc<LocationTree> {
        Arc::clone(&self.tree)
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        Arc::clone(&self.prior)
    }
}

fn solve_subtree(
    tree: &LocationTree,
    prior: &PriorDistribution,
    config: &ServerConfig,
    seeds: &WarmSeedStore,
    subtree: &Subtree,
    request: MatrixRequest,
) -> Result<ForestEntry, CorgiError> {
    let problem = problem_for_subtree(tree, prior, config, subtree)?;
    let root = subtree.root();
    let seed = seeds.nearest(request.privacy_level, root.pack(), request.delta);
    let run = generate_robust_matrix_warm(
        &problem,
        &RobustConfig {
            delta: request.delta,
            iterations: if request.delta == 0 {
                0
            } else {
                config.robust_iterations
            },
        },
        seed.as_deref(),
    )?;
    if let Some(warm) = run.warm {
        seeds.insert(request.privacy_level, root.pack(), request.delta, warm);
    }
    Ok(ForestEntry {
        subtree_root: root,
        matrix: run.matrix,
    })
}

fn problem_for_subtree(
    tree: &LocationTree,
    prior: &PriorDistribution,
    config: &ServerConfig,
    subtree: &Subtree,
) -> Result<ObfuscationProblem, CorgiError> {
    let leaves = subtree.leaves();
    let restricted = prior
        .restricted_to(tree.grid(), leaves)
        .unwrap_or_else(|| vec![1.0 / leaves.len() as f64; leaves.len()]);
    // XOR-ing in the packed root makes the seed unique per subtree; the old
    // shared seed made all same-sized subtrees pick identical target index sets.
    let mut rng = StdRng::seed_from_u64(config.target_seed ^ subtree.root().pack());
    let mut indices: Vec<usize> = (0..leaves.len()).collect();
    indices.shuffle(&mut rng);
    let n_targets = config.targets_per_subtree.clamp(1, leaves.len());
    let targets: Vec<usize> = indices.into_iter().take(n_targets).collect();
    ObfuscationProblem::new(
        tree,
        subtree,
        &restricted,
        &targets,
        config.epsilon,
        config.graph_approximation,
    )
}

// ---------------------------------------------------------------------------
// WarmSeedStore — neighbour warm-start seeds for the subtree LPs
// ---------------------------------------------------------------------------

/// Upper bound on stored iterates per `(privacy_level, subtree_root)` key:
/// enough to keep a few δ-neighbours around without the store growing with
/// every δ ever requested.
const MAX_SEEDS_PER_KEY: usize = 4;

/// Stored iterates per `(privacy_level, subtree)` key, each tagged with the
/// δ it converged at.  Shared, so a lookup under the lock is a refcount bump
/// rather than a copy of the iterate (~24k doubles at K = 49).
type SeedsByDelta = Mutex<HashMap<(u8, u64), Vec<(usize, Arc<WarmStart>)>>>;

/// Cross-request store of converged interior-point iterates, keyed by
/// `(privacy_level, packed subtree root)` and tagged with the δ they solved.
///
/// Grid-adjacent `(privacy_level, δ)` requests solve the *same* subtree LPs
/// under slightly different reserved-budget tightenings, so each subtree solve
/// seeds from the stored iterate of the nearest already-solved δ for that
/// subtree — turning a whole-grid warm-up into one cold solve plus cheap
/// refinements per subtree, and letting an online cold miss start from its
/// nearest cached neighbour.  Lookups take the minimum `|Δδ|` (ties: the
/// smaller δ, making the sweep order deterministic); inserts replace the
/// same-δ entry or evict the entry farthest from the new δ once the per-key
/// bound is reached.
#[derive(Default)]
struct WarmSeedStore {
    seeds: SeedsByDelta,
    warm_started: AtomicU64,
    cold: AtomicU64,
}

/// Counters of [`ForestGenerator::warm_stats`]: subtree solves seeded from a
/// stored neighbour iterate vs started cold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmSeedStats {
    /// Subtree solves that started from a neighbouring `(privacy_level, δ)`
    /// converged iterate.
    pub warm_started: u64,
    /// Subtree solves with no usable neighbour seed (cold interior point).
    pub cold: u64,
}

impl WarmSeedStore {
    /// The stored iterate nearest (by `|Δδ|`) to `delta` for this subtree,
    /// counting the outcome in the warm/cold counters.
    fn nearest(&self, level: u8, root: u64, delta: usize) -> Option<Arc<WarmStart>> {
        let seeds = self.seeds.lock().expect("warm seed store poisoned");
        let found = seeds.get(&(level, root)).and_then(|entries| {
            entries
                .iter()
                .min_by_key(|(d, _)| (d.abs_diff(delta), *d))
                .map(|(_, warm)| Arc::clone(warm))
        });
        drop(seeds);
        if found.is_some() {
            self.warm_started.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, level: u8, root: u64, delta: usize, warm: WarmStart) {
        let warm = Arc::new(warm);
        let mut seeds = self.seeds.lock().expect("warm seed store poisoned");
        let entries = seeds.entry((level, root)).or_default();
        if let Some(slot) = entries.iter_mut().find(|(d, _)| *d == delta) {
            slot.1 = warm;
            return;
        }
        entries.push((delta, warm));
        if entries.len() > MAX_SEEDS_PER_KEY {
            // Evict the entry farthest from the δ just inserted (ties: the
            // larger δ goes), keeping the closest neighbourhood around.
            if let Some(pos) = entries
                .iter()
                .enumerate()
                .max_by_key(|(_, (d, _))| (d.abs_diff(delta), *d))
                .map(|(pos, _)| pos)
            {
                entries.swap_remove(pos);
            }
        }
    }

    fn stats(&self) -> WarmSeedStats {
        WarmSeedStats {
            warm_started: self.warm_started.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// ForestCache — bounded LRU + single-flight under one lock — and CachingService
// ---------------------------------------------------------------------------

type CacheKey = (u8, usize);

/// Counters describing cache behaviour since construction.
///
/// Serializable since protocol 1.4: a server reports its caching layer's
/// counters inside a wire `StatsReply` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to generate (or wait for) a fresh forest.
    pub misses: u64,
    /// Misses that piggybacked on an identical in-flight generation.
    pub coalesced: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Everything the cache's one lock guards: the resident entries, the
/// recency clock and the in-flight generations.
#[derive(Default)]
struct CacheState {
    entries: HashMap<CacheKey, CacheEntry>,
    tick: u64,
    flights: HashMap<CacheKey, Arc<Flight>>,
}

impl CacheState {
    /// Touch `key`'s entry as most recently used and take what `pick`
    /// reads from it.  Counts nothing; the callers count the hit.
    fn touch<T>(&mut self, key: &CacheKey, pick: impl FnOnce(&CacheEntry) -> T) -> Option<T> {
        let entry = self.entries.get_mut(key)?;
        self.tick += 1;
        entry.last_used = self.tick;
        Some(pick(entry))
    }
}

/// One resident forest: the shared response, its binary body (encoded once,
/// at insert) and the tick of its last use.
struct CacheEntry {
    forest: Arc<PrivacyForestResponse>,
    body: ForestBody,
    last_used: u64,
}

/// State of one in-flight generation, shared between the leader computing it
/// and any followers waiting for the same key.
struct Flight {
    slot: Mutex<Option<Result<Arc<PrivacyForestResponse>, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<PrivacyForestResponse>, ServiceError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The forest cache: a capacity-bounded LRU over `(privacy_level, δ)` keys
/// with single-flight deduplication, all under one lock.
///
/// * **Bounded** — the bound is exact: an insert that would take the cache
///   past its capacity evicts the least recently used entry, and only then.
/// * **Single-flight** — concurrent requests for the same uncached key elect
///   one leader to run the inner generation; followers block on the shared
///   flight record and receive the *same* `Arc` the leader produced.  A hit,
///   joining a flight and starting one are one critical section, as are
///   publishing a forest and retiring its flight.  Errors are delivered to
///   all waiters but never cached.
/// * **Encoded once** — each entry keeps its forest's binary body beside the
///   `Arc`, encoded on insert before the lock is taken, so
///   [`ForestCache::encoded_hit`] serves a hit without re-encoding.
///
/// A [`CachingService`] owns one and answers requests through it; everything
/// else reaches it through [`MatrixService::cache`].
pub struct ForestCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    /// Bumped on every cache insert; tags anti-entropy digests (1.5).
    generation: AtomicU64,
}

impl ForestCache {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// A point-in-time snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock().entries.len(),
        }
    }

    /// Offer an already-solved forest (replicated from a cluster peer) to
    /// the cache without running a generation.  The forest is cached under
    /// its own `request` key.
    pub fn warm_insert(&self, forest: Arc<PrivacyForestResponse>) -> WarmInsertOutcome {
        let key = (forest.request.privacy_level, forest.request.delta);
        if self.lock().entries.contains_key(&key) {
            return WarmInsertOutcome::AlreadyResident;
        }
        // Benign race with a concurrent flight for the same key: both produce
        // a valid forest, the later insert simply replaces the earlier one.
        let body = ForestBody::encode(&forest);
        self.insert(&mut self.lock(), key, forest, body);
        WarmInsertOutcome::Inserted
    }

    /// The `(privacy_level, δ)` keys currently resident, in no particular
    /// order.
    ///
    /// This is the anti-entropy digest source (protocol 1.5): a recovering
    /// peer compares a healthy shard's resident keys against its own and pulls
    /// the diff.
    pub fn resident_keys(&self) -> Vec<MatrixRequest> {
        self.lock()
            .entries
            .keys()
            .map(|&(privacy_level, delta)| MatrixRequest {
                privacy_level,
                delta,
            })
            .collect()
    }

    /// The cached forest for `request`, if resident — a pure peek: no
    /// generation, no hit/miss accounting, no LRU touch.
    ///
    /// Digest pulls use this so serving anti-entropy traffic never perturbs
    /// the cache counters or recency order.  Serving a user's request from the
    /// cache is [`ForestCache::encoded_hit`], which counts.
    pub fn resident(&self, request: MatrixRequest) -> Option<Arc<PrivacyForestResponse>> {
        let key = (request.privacy_level, request.delta);
        self.lock()
            .entries
            .get(&key)
            .map(|entry| Arc::clone(&entry.forest))
    }

    /// Serve `request` as a cache hit, returned as the forest's binary body
    /// encoded once when it was cached; `None` when the key is not resident.
    ///
    /// A `Some` is a user request served: it counts exactly as a
    /// [`MatrixService::privacy_forest`] hit does (a cache hit and the LRU
    /// touch).  A `None` counts nothing, since the caller then serves the
    /// request through `privacy_forest`, which counts the miss.  The server
    /// answers resident hits on its reactor thread this way, framing the
    /// body with
    /// [`WireCodec::encode_forest_reply`](crate::WireCodec::encode_forest_reply).
    /// Unlike [`ForestCache::resident`], this is not a peek.
    pub fn encoded_hit(&self, request: MatrixRequest) -> Option<ForestBody> {
        let key = (request.privacy_level, request.delta);
        let body = self.lock().touch(&key, |entry| entry.body.clone())?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// A monotonic generation counter bumped on every insert, tagging digest
    /// replies so a puller can tell whether a peer's summary is stale.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The forest for `request`: a hit if resident, otherwise one
    /// `solver.privacy_forest` call shared by every concurrent caller of the
    /// key, cached on success.
    fn get_or_solve<S: MatrixService + ?Sized>(
        &self,
        request: MatrixRequest,
        solver: &S,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        let key = (request.privacy_level, request.delta);
        // Hit, or join or start the single flight for this key.
        let (flight, leader) = {
            let mut state = self.lock();
            if let Some(hit) = state.touch(&key, |entry| Arc::clone(&entry.forest)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            match state.flights.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    state.flights.insert(key, Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return flight.wait();
        }

        // Contain a panicking solver: without this, the leader would unwind
        // past the flight record, leaving every future caller of this key
        // blocked on a generation that no longer exists.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solver.privacy_forest(request)
        }))
        .unwrap_or_else(|payload| {
            Err(ServiceError::new(
                crate::messages::ServiceErrorKind::Internal,
                format!(
                    "forest generation panicked: {}",
                    crate::pool::panic_message(payload.as_ref())
                ),
            ))
        });
        let published = result
            .as_ref()
            .ok()
            .map(|forest| (Arc::clone(forest), ForestBody::encode(forest)));
        {
            // Publish and retire in one step, so a late caller finds either
            // the cache entry or the in-flight generation.
            let mut state = self.lock();
            if let Some((forest, body)) = published {
                self.insert(&mut state, key, forest, body);
            }
            state.flights.remove(&key);
        }
        flight.complete(result.clone());
        result
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cache `forest` under `key` with its encoded `body` (made before the
    /// lock was taken: a level-2 body is tens of µs), evicting the least
    /// recently used entry if the cache would exceed its capacity.
    fn insert(
        &self,
        state: &mut CacheState,
        key: CacheKey,
        forest: Arc<PrivacyForestResponse>,
        body: ForestBody,
    ) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        state.tick += 1;
        let last_used = state.tick;
        state.entries.insert(
            key,
            CacheEntry {
                forest,
                body,
                last_used,
            },
        );
        if state.entries.len() > self.capacity {
            let lru = state
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| *k)
                .expect("a cache over capacity has an LRU entry");
            state.entries.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serves an inner [`MatrixService`] through a [`ForestCache`]: a request is
/// a hit from the cache or one single-flight call into the inner service.
pub struct CachingService<S> {
    inner: S,
    cache: ForestCache,
}

impl<S: MatrixService> CachingService<S> {
    /// Wrap a service in a cache holding at most `capacity` forests
    /// (clamped to at least 1).
    pub fn new(inner: S, capacity: usize) -> Self {
        Self {
            inner,
            cache: ForestCache::new(capacity),
        }
    }

    /// Wrap a service in a cache of 64 forests.
    pub fn with_defaults(inner: S) -> Self {
        Self::new(inner, 64)
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MatrixService> MatrixService for CachingService<S> {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        self.cache.get_or_solve(request, &self.inner)
    }

    fn tree(&self) -> Arc<LocationTree> {
        self.inner.tree()
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        self.inner.prior()
    }

    fn cache(&self) -> Option<&ForestCache> {
        Some(&self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator};
    use corgi_hexgrid::{HexGrid, HexGridConfig};

    fn generator() -> ForestGenerator {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        let config = ServerConfig {
            robust_iterations: 2,
            targets_per_subtree: 5,
            worker_threads: 3,
            ..ServerConfig::default()
        };
        ForestGenerator::new(LocationTree::new(grid), prior, config)
    }

    fn request(privacy_level: u8, delta: usize) -> MatrixRequest {
        MatrixRequest {
            privacy_level,
            delta,
        }
    }

    #[test]
    fn pooled_and_serial_paths_agree_exactly() {
        // Fresh generators per side: both start from an empty warm-seed store,
        // so the per-subtree solves see identical seed histories.
        let pooled = generator().generate(request(1, 1)).unwrap();
        let serial = generator().generate_serial(request(1, 1)).unwrap();
        assert_eq!(pooled, serial, "pool size must not change the output");
        assert_eq!(pooled.entries.len(), 49);
    }

    #[test]
    fn neighbour_requests_warm_start_from_the_seed_store() {
        let generator = generator();
        generator.generate(request(1, 0)).unwrap();
        let after_first = generator.warm_stats();
        assert_eq!(
            after_first.warm_started, 0,
            "the first request has no neighbours to seed from"
        );
        assert_eq!(after_first.cold, 49);
        generator.generate(request(1, 1)).unwrap();
        let after_second = generator.warm_stats();
        assert!(
            after_second.warm_started > 0,
            "δ=1 subtree solves must seed from their δ=0 neighbours"
        );
        assert_eq!(after_second.warm_started + after_second.cold, 98);
        // The warm-started path must still produce a valid, reproducible
        // forest: a fresh generator (empty store) agrees bit-for-bit only on
        // the first request, so just check structural validity here.
        let again = generator.generate(request(1, 1)).unwrap();
        assert_eq!(again.entries.len(), 49);
    }

    #[test]
    fn same_sized_subtrees_get_distinct_targets() {
        // Regression: the old server seeded every shuffle with the same
        // target_seed, so all same-sized subtrees picked identical target sets.
        let generator = generator();
        let forest = generator.tree().privacy_forest(1).unwrap();
        let a = generator.problem_for_subtree(&forest[0]).unwrap();
        let b = generator.problem_for_subtree(&forest[1]).unwrap();
        assert_eq!(a.targets().len(), b.targets().len());
        assert_ne!(
            a.targets(),
            b.targets(),
            "distinct subtrees must draw distinct target index sets"
        );
        // Determinism: the same subtree always gets the same targets.
        let a_again = generator.problem_for_subtree(&forest[0]).unwrap();
        assert_eq!(a.targets(), a_again.targets());
    }

    #[test]
    fn caching_service_hits_and_shares_responses() {
        let service = CachingService::with_defaults(generator());
        let a = service.privacy_forest(request(1, 0)).unwrap();
        let b = service.privacy_forest(request(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_evicts_least_recently_used_beyond_capacity() {
        let service = CachingService::new(generator(), 2);
        let first = service.privacy_forest(request(1, 0)).unwrap();
        service.privacy_forest(request(1, 1)).unwrap();
        // Touch the first key so (1, 1) is the LRU when the third key lands.
        assert!(Arc::ptr_eq(
            &first,
            &service.privacy_forest(request(1, 0)).unwrap()
        ));
        service.privacy_forest(request(1, 2)).unwrap();
        let stats = service.cache_stats().unwrap();
        assert_eq!(stats.entries, 2, "capacity bound must hold");
        assert_eq!(stats.evictions, 1);
        // The touched key survived; the untouched one was evicted.
        assert!(Arc::ptr_eq(
            &first,
            &service.privacy_forest(request(1, 0)).unwrap()
        ));
        assert_eq!(service.cache_stats().unwrap().misses, 3);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let service = CachingService::with_defaults(generator());
        let err = service.privacy_forest(request(9, 0)).unwrap_err();
        assert_eq!(err.kind, crate::messages::ServiceErrorKind::InvalidRequest);
        assert_eq!(service.cache_stats().unwrap().entries, 0);
        // A second attempt re-runs the inner service (the error was not cached).
        service.privacy_forest(request(9, 0)).unwrap_err();
        assert_eq!(service.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn panicking_inner_service_does_not_wedge_the_single_flight() {
        // Regression: a leader unwinding out of the inner service used to
        // leave its flight record in the in-flight table forever, so every
        // later request for the key would block on a dead generation.
        struct PanickingService {
            inner: ForestGenerator,
        }
        impl MatrixService for PanickingService {
            fn privacy_forest(
                &self,
                _request: MatrixRequest,
            ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
                panic!("solver bug");
            }
            fn tree(&self) -> Arc<LocationTree> {
                self.inner.tree()
            }
            fn prior(&self) -> Arc<PriorDistribution> {
                self.inner.prior()
            }
        }
        let service = CachingService::with_defaults(PanickingService { inner: generator() });
        for _ in 0..2 {
            // Both calls return (no hang) with a structured internal error.
            let err = service.privacy_forest(request(1, 0)).unwrap_err();
            assert_eq!(err.kind, crate::messages::ServiceErrorKind::Internal);
            assert!(err.message.contains("solver bug"), "{}", err.message);
        }
        assert_eq!(
            service.cache_stats().unwrap().entries,
            0,
            "panics are not cached"
        );
    }

    #[test]
    fn warm_insert_populates_without_a_solve_and_dedups() {
        let origin = CachingService::with_defaults(generator());
        let forest = origin.privacy_forest(request(1, 0)).unwrap();

        // A peer receiving the replicated forest serves it without a miss.
        let peer = CachingService::with_defaults(generator());
        let cache = peer.cache().unwrap();
        assert_eq!(
            cache.warm_insert(Arc::clone(&forest)),
            WarmInsertOutcome::Inserted
        );
        assert_eq!(
            cache.warm_insert(Arc::clone(&forest)),
            WarmInsertOutcome::AlreadyResident
        );
        let served = peer.privacy_forest(request(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&served, &forest), "shared, not re-generated");
        let stats = peer.cache_stats().unwrap();
        assert_eq!(stats.misses, 0, "replication must not cost a solve");
        assert_eq!(stats.hits, 1);

        // A bare generator has no cache to retain the forest in.
        assert!(generator().cache().is_none());
        assert!(generator().cache_stats().is_none());
    }

    #[test]
    fn resident_peek_is_counter_neutral_and_generation_tags_inserts() {
        let service = CachingService::with_defaults(generator());
        let cache = service.cache().unwrap();
        assert_eq!(cache.generation(), 0);
        assert!(cache.resident_keys().is_empty());
        assert!(service.resident(request(1, 0)).is_none());

        let forest = service.privacy_forest(request(1, 0)).unwrap();
        assert_eq!(cache.generation(), 1, "insert bumps the generation");
        assert_eq!(cache.resident_keys(), vec![request(1, 0)]);
        let peeked = service.resident(request(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&peeked, &forest), "peek shares the cached Arc");

        // Peeks are invisible to the counters — still 0 hits, 1 miss.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));

        // A bare generator has nothing resident.
        assert!(generator().resident(request(1, 0)).is_none());
    }

    /// A one-entry forest for `(privacy_level, delta)`, cached through
    /// `warm_insert` so the counter tests below run no solve.
    fn canned(privacy_level: u8, delta: usize) -> Arc<PrivacyForestResponse> {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let root = grid.cells_at_level(1)[0];
        Arc::new(PrivacyForestResponse {
            request: request(privacy_level, delta),
            epsilon: 15.0,
            entries: vec![ForestEntry {
                subtree_root: root,
                matrix: corgi_core::ObfuscationMatrix::uniform(root.descendant_leaves()).unwrap(),
            }],
        })
    }

    /// Cache `(1, 0)` then `(1, 1)` in a two-slot cache, read `(1, 0)` with
    /// `read`, then cache `(1, 2)`, evicting the least recently used key.
    /// Returns the cache counters and the keys left resident.
    fn lru_story(
        read: impl Fn(&CachingService<ForestGenerator>, MatrixRequest) -> bool,
    ) -> (CacheStats, Vec<usize>) {
        let service = CachingService::new(generator(), 2);
        let cache = service.cache().unwrap();
        cache.warm_insert(canned(1, 0));
        cache.warm_insert(canned(1, 1));
        assert!(read(&service, request(1, 0)), "(1, 0) is resident");
        cache.warm_insert(canned(1, 2));
        let mut deltas: Vec<usize> = cache.resident_keys().iter().map(|k| k.delta).collect();
        deltas.sort_unstable();
        (cache.stats(), deltas)
    }

    #[test]
    fn encoded_hit_counts_like_a_forest_hit_and_the_peek_counts_nothing() {
        let via_forest = lru_story(|s, r| s.privacy_forest(r).is_ok());
        let via_body = lru_story(|s, r| s.cache().unwrap().encoded_hit(r).is_some());
        let via_peek = lru_story(|s, r| s.resident(r).is_some());

        // One hit, and the touched key outlives (1, 1).
        assert_eq!(via_forest.0.hits, 1, "{via_forest:?}");
        assert_eq!(via_forest.0.misses, 0, "{via_forest:?}");
        assert_eq!(via_forest.1, vec![0, 2]);
        assert_eq!(via_body, via_forest, "encoded_hit must count like a hit");

        // The peek moves nothing: no hit, no LRU touch, so the untouched
        // order evicts (1, 0).
        assert_eq!((via_peek.0.hits, via_peek.0.misses), (0, 0));
        assert_eq!(via_peek.1, vec![1, 2]);

        // A non-resident key counts nothing here: the caller serves it
        // through privacy_forest, which counts the miss.
        let service = CachingService::with_defaults(generator());
        let cache = service.cache().unwrap();
        assert!(cache.encoded_hit(request(1, 0)).is_none());
        assert_eq!(cache.stats(), CacheStats::default());

        // The body is the forest's encoding, made once at insert.
        let forest = canned(1, 0);
        cache.warm_insert(Arc::clone(&forest));
        assert_eq!(
            cache.encoded_hit(request(1, 0)),
            Some(ForestBody::encode(&forest))
        );
    }

    #[test]
    fn default_cache_holds_its_full_capacity_and_evicts_only_the_lru_key() {
        // The bound is exact and global: the 64 keys of levels 1-2 × δ 0..=31
        // fill the default cache without an eviction, and a 65th key evicts
        // exactly one entry, the least recently used.
        let service = CachingService::with_defaults(generator());
        let cache = service.cache().unwrap();
        for level in 1..=2 {
            for delta in 0..=31 {
                assert_eq!(
                    cache.warm_insert(canned(level, delta)),
                    WarmInsertOutcome::Inserted
                );
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (64, 0), "{stats:?}");

        // Touch the oldest key, so (1, 1) is the least recently used.
        assert!(cache.encoded_hit(request(1, 0)).is_some());
        cache.warm_insert(canned(1, 32));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (64, 1), "{stats:?}");
        assert!(cache.resident(request(1, 1)).is_none(), "the LRU key goes");
        assert!(cache.resident(request(1, 0)).is_some());
        assert!(cache.resident(request(1, 32)).is_some());
    }

    #[test]
    fn envelope_round_trip_through_the_stack() {
        let service: Arc<dyn MatrixService> = Arc::new(CachingService::with_defaults(generator()));
        let reply = service.handle_envelope(&RequestEnvelope::new(11, request(1, 0)));
        assert_eq!(reply.request_id, 11);
        assert_eq!(reply.into_result().unwrap().entries.len(), 49);

        // A future major version is refused with a structured error.
        let mut envelope = RequestEnvelope::new(12, request(1, 0));
        envelope.version.major += 1;
        let reply = service.handle_envelope(&envelope);
        let err = reply.into_result().unwrap_err();
        assert_eq!(
            err.kind,
            crate::messages::ServiceErrorKind::UnsupportedVersion
        );
    }
}
