//! Overload behaviour as a tested contract.
//!
//! Drives the real `TcpServer` with the open-loop load harness at twice the
//! measured saturation point (the "knee") of a service with a fixed, known
//! cost per request, and asserts the admission-control contract:
//!
//! - excess load is shed with structured, retryable `Overloaded` errors —
//!   never by hanging a request or poisoning its connection;
//! - every scheduled request resolves within its deadline
//!   (`completed == offered`);
//! - goodput under 2× overload stays within 20% of the knee (shedding does
//!   not collapse throughput);
//! - server-side memory stays bounded: the read-buffer high-water mark never
//!   exceeds one maximal frame plus the refill slack.

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::messages::{MatrixRequest, PrivacyForestResponse, ServiceError};
use corgi::framework::transport::FRAME_HEADER_LEN;
use corgi::framework::{
    ForestGenerator, MatrixService, ServerConfig, TcpServer, TcpTransport, TransportConfig,
};
use corgi::hexgrid::{HexGrid, HexGridConfig};
use corgi_bench::loadgen::{run, LoadProfile};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service with a fixed, known cost per request: sleeps for a constant
/// service time and returns a pre-generated response.  With `t` dispatch
/// threads the serving capacity (the knee) is exactly `t / service_time`
/// requests per second, which makes "2× overload" a precise statement.
struct SlowService {
    inner: ForestGenerator,
    canned: Arc<PrivacyForestResponse>,
    service_time: Duration,
}

impl SlowService {
    fn new(service_time: Duration) -> Self {
        let grid = HexGrid::new(HexGridConfig::san_francisco()).unwrap();
        let (dataset, _) =
            GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
        let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
        let inner = ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            ServerConfig {
                robust_iterations: 1,
                targets_per_subtree: 3,
                worker_threads: 2,
                ..ServerConfig::default()
            },
        );
        let canned = inner
            .privacy_forest(MatrixRequest {
                privacy_level: 1,
                delta: 0,
            })
            .expect("generating the canned response");
        Self {
            inner,
            canned,
            service_time,
        }
    }
}

impl MatrixService for SlowService {
    fn privacy_forest(
        &self,
        _request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        std::thread::sleep(self.service_time);
        Ok(Arc::clone(&self.canned))
    }

    fn tree(&self) -> Arc<LocationTree> {
        self.inner.tree()
    }

    fn prior(&self) -> Arc<PriorDistribution> {
        self.inner.prior()
    }
}

#[test]
fn saturation_sheds_structured_errors_and_keeps_goodput() {
    const SERVICE_TIME: Duration = Duration::from_millis(4);
    const DISPATCH_THREADS: usize = 2;

    let config = TransportConfig {
        dispatch_threads: DISPATCH_THREADS,
        max_dispatch_backlog: 8,
        ..TransportConfig::default()
    };
    let max_inbound_frame = config.max_inbound_frame;
    let service = Arc::new(SlowService::new(SERVICE_TIME));
    let server = TcpServer::bind("127.0.0.1:0", service as Arc<dyn MatrixService>, config)
        .expect("binding the overload server");
    let addr = server.local_addr();

    // Measure the knee instead of trusting the constants: serial requests on
    // one connection see service time plus transport overhead, so
    // `threads / mean_latency` is a slightly conservative capacity estimate.
    let probe = TcpTransport::connect(addr).expect("probe connection");
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let probe_start = Instant::now();
    let probe_count = 30;
    for _ in 0..probe_count {
        probe.privacy_forest(request).expect("unloaded request");
    }
    let mean_latency = probe_start.elapsed() / probe_count;
    let knee_rps = DISPATCH_THREADS as f64 / mean_latency.as_secs_f64();
    drop(probe);

    // Offer 2× the knee.  Spread over enough connections that each one's
    // synchronous exchange keeps up with its slice of the schedule — the
    // offered process must not degrade into a closed loop.
    let profile = LoadProfile {
        connections: 32,
        rate_hz: 2.0 * knee_rps,
        duration: Duration::from_millis(2500),
        levels: vec![1],
        max_delta: 0,
        zipf_exponent: 0.0,
        churn_every: 0,
        seed: 7,
        request_timeout: Duration::from_secs(5),
    };
    let report = run(addr, &profile);
    let stats = server.stats();
    server.shutdown();

    // Nothing hangs: every scheduled request resolved within its deadline.
    assert_eq!(
        report.completed, report.offered,
        "every request must resolve: {report:?}"
    );
    assert_eq!(
        report.errors, 0,
        "overload must not produce hard errors: {report:?}"
    );
    assert_eq!(
        report.ok + report.shed,
        report.completed,
        "every completion is a success or a shed: {report:?}"
    );

    // At 2× the knee roughly half the load must be shed — and every shed is
    // the server's structured Overloaded reply (the client counts only
    // retryable errors as sheds), so the two tallies agree exactly and no
    // connection was poisoned or replaced.
    assert!(report.shed > 0, "2x overload must shed: {report:?}");
    assert_eq!(stats.requests_shed, report.shed as u64, "{stats:?}");
    assert_eq!(
        report.reconnects, 0,
        "sheds must not poison connections: {report:?}"
    );
    assert_eq!(stats.poisoned_connections, 0, "{stats:?}");

    // Shedding protects goodput: the served fraction stays within 20% of the
    // measured knee instead of collapsing under queueing.
    let goodput = report.goodput_rps();
    assert!(
        goodput >= 0.8 * knee_rps,
        "goodput {goodput:.0} req/s fell below 80% of the knee {knee_rps:.0} req/s: {report:?}"
    );

    // Bounded memory: the admission path answers from the reactor without
    // buffering shed requests, so no read buffer ever exceeds one maximal
    // frame plus the documented refill slack.
    let read_buffer_bound = (max_inbound_frame + FRAME_HEADER_LEN + 4096) as u64;
    assert!(
        stats.read_buffer_high_water <= read_buffer_bound,
        "read-buffer high water {} exceeds the bound {}",
        stats.read_buffer_high_water,
        read_buffer_bound
    );

    // The latency histogram is coherent: percentiles are ordered and capped
    // by the exact maximum.
    let hist = &report.histogram;
    assert_eq!(hist.count(), report.ok as u64);
    let p50 = hist.percentile(50.0);
    let p99 = hist.percentile(99.0);
    assert!(
        p50 <= p99 && p99 <= hist.max_ns(),
        "p50 {p50}, p99 {p99}, max {}",
        hist.max_ns()
    );
}
