//! Integration tests of the serving stack: full-tree requests through
//! `CachingService<ForestGenerator>`, single-flight deduplication under real
//! thread contention, the cache capacity bound, and the concurrent-vs-serial
//! compute path.

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::{
    MatrixRequest, PrivacyForestResponse, RequestEnvelope, ResponseEnvelope,
};
use corgi::framework::{
    warm, CachingService, ForestGenerator, MatrixService, ServerConfig, ServiceError, WarmRequest,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn generator(worker_threads: usize) -> ForestGenerator {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    ForestGenerator::new(
        LocationTree::new(grid),
        prior,
        ServerConfig {
            robust_iterations: 2,
            targets_per_subtree: 5,
            worker_threads,
            ..ServerConfig::default()
        },
    )
}

#[test]
fn full_tree_request_completes_through_the_caching_stack() {
    // Privacy level 0 roots a subtree at every leaf: the privacy forest covers
    // the full tree with K = 343 subtrees (the ROADMAP's full-tree regime).
    let service = CachingService::with_defaults(generator(0));
    let request = MatrixRequest {
        privacy_level: 0,
        delta: 1,
    };
    let response = service.privacy_forest(request).unwrap();
    assert_eq!(response.entries.len(), 343);
    for entry in &response.entries {
        assert_eq!(entry.subtree_root.level(), 0);
        entry.matrix.check_stochastic(1e-9).unwrap();
    }
    // The repeat request is answered from the cache with the same Arc.
    let again = service.privacy_forest(request).unwrap();
    assert!(Arc::ptr_eq(&response, &again));
    assert_eq!(service.cache_stats().unwrap().hits, 1);
}

/// Test double: counts how many times the wrapped generator actually runs and
/// holds each generation long enough for concurrent callers to pile up.
struct SlowCountingService {
    inner: ForestGenerator,
    generations: AtomicUsize,
}

impl MatrixService for SlowCountingService {
    fn privacy_forest(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        self.generations.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(200));
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
fn concurrent_same_key_requests_are_single_flight() {
    let threads = 8;
    let service = Arc::new(CachingService::with_defaults(SlowCountingService {
        inner: generator(1),
        generations: AtomicUsize::new(0),
    }));
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service
                    .privacy_forest(MatrixRequest {
                        privacy_level: 1,
                        delta: 0,
                    })
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Exactly one generation ran; every caller got the very same Arc.
    assert_eq!(service.inner().generations.load(Ordering::SeqCst), 1);
    for response in &responses[1..] {
        assert!(Arc::ptr_eq(&responses[0], response));
    }
    let stats = service.cache_stats().expect("caching layer reports stats");
    assert_eq!(stats.hits + stats.misses, threads as u64);
    assert!(stats.coalesced <= stats.misses);
}

#[test]
fn warming_coalesces_with_concurrent_live_traffic() {
    // A warming pass and live requests racing on the same key must elect one
    // generation between them: warming goes through the same single-flight
    // caching layer as organic traffic.
    let threads = 4;
    let service = Arc::new(CachingService::with_defaults(SlowCountingService {
        inner: generator(1),
        generations: AtomicUsize::new(0),
    }));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let warmer = {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            warm(service.as_ref(), &WarmRequest::level(1, 0))
        })
    };
    let live: Vec<_> = (0..threads)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service
                    .privacy_forest(MatrixRequest {
                        privacy_level: 1,
                        delta: 0,
                    })
                    .unwrap()
            })
        })
        .collect();
    let report = warmer.join().unwrap();
    assert!(report.is_complete());
    for handle in live {
        handle.join().unwrap();
    }
    assert_eq!(
        service.inner().generations.load(Ordering::SeqCst),
        1,
        "warming and live traffic must share one generation"
    );
}

#[test]
fn cache_evicts_above_its_configured_capacity() {
    let service = CachingService::new(generator(0), 3);
    for delta in 0..6usize {
        service
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta,
            })
            .unwrap();
    }
    let stats = service.cache_stats().unwrap();
    // The bound is exact: the cache fills to its capacity, and each key past
    // it evicts exactly one entry.
    assert_eq!(stats.entries, 3, "{stats:?}");
    assert_eq!(stats.evictions, 3, "{stats:?}");
    assert_eq!(stats.misses, 6);
}

#[test]
fn pooled_generation_beats_serial_on_a_multicore_runner() {
    // Equivalence needs equal warm-seed histories: a generator's first solve
    // of a key inserts a seed, and a second solve of the same key on the SAME
    // generator would warm-start from it — converging to the same optimum but
    // not the bit-identical iterate.  Two fresh generators (both with empty
    // stores) isolate the one variable under test: the worker pool.
    let serial_generator = generator(0);
    let generator = generator(0);
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 1,
    };
    // Warm both paths once (lazy allocations, page faults).
    let pooled = generator.generate(request).unwrap();
    let serial = serial_generator.generate_serial(request).unwrap();
    assert_eq!(pooled, serial, "the pool must not change the result");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        // On small machines the speed-up is not reliably measurable; the
        // equivalence assertion above still ran. The dedicated benchmark
        // (`cargo bench -p corgi-bench` → serving_benches) covers timing.
        return;
    }
    // Best-of-3 per path keeps the assertion above scheduler noise (other
    // test binaries run concurrently with this one).
    let time_best_of = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let serial_time = time_best_of(&|| {
        generator.generate_serial(request).unwrap();
    });
    let pooled_time = time_best_of(&|| {
        generator.generate(request).unwrap();
    });
    assert!(
        pooled_time < serial_time,
        "49 independent subtree solves on {cores} cores must beat the serial path: pooled {pooled_time:?} vs serial {serial_time:?}"
    );
}

#[test]
fn wire_protocol_round_trips_as_json_through_the_stack() {
    let service = CachingService::with_defaults(generator(0));
    let envelope = RequestEnvelope::new(
        99,
        MatrixRequest {
            privacy_level: 1,
            delta: 0,
        },
    );
    // Client → JSON → server.
    let wire = serde_json::to_string(&envelope).unwrap();
    let received: RequestEnvelope = serde_json::from_str(&wire).unwrap();
    let reply = service.handle_envelope(&received);
    // Server → JSON → client.
    let wire = serde_json::to_string(&reply).unwrap();
    let received: ResponseEnvelope = serde_json::from_str(&wire).unwrap();
    assert_eq!(received.request_id, 99);
    let forest = received.into_result().unwrap();
    assert_eq!(forest.entries.len(), 49);
}
