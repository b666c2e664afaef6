//! Open-loop load harness for the serving stack.
//!
//! Drives a live [`TcpServer`] over loopback the way a population of
//! independent mobile devices would: requests are issued at *scheduled*
//! Poisson arrival times (see [`corgi_datagen::open_loop_arrivals`]) spread
//! over a fixed set of client connections, with `(privacy_level, δ)` keys
//! drawn from a Zipf-skewed [`RequestMix`].  Because the harness is
//! **open-loop**, a slow server does not slow the offered load down — late
//! completions simply accumulate queueing delay — and every latency is
//! measured from the request's scheduled arrival time, so the recorded
//! [`Histogram`] is free of coordinated omission.
//!
//! The harness understands the server's admission-control contract: a
//! structured [`ServiceErrorKind::Overloaded`] reply counts as a *shed* (the
//! connection stays healthy, the request is not retried), any other failure
//! counts as an error, and a poisoned connection is replaced.  Connection
//! churn — tearing a connection down and reconnecting every N requests — is
//! part of the profile, exercising the accept/handshake path under load.
//!
//! Two axes extend the basic single-server open-loop run:
//!
//! * **sharding** ([`run_load`] with several addresses) — each worker drives a
//!   [`ShardRouter`] over the shard set instead of a single transport, and the
//!   report carries per-shard completion counts plus router failovers;
//! * **closed loop** ([`LoadMode::Closed`]) — workers issue their next request
//!   the moment the previous response lands, measuring pure service time.
//!   Comparing the two modes on the same profile makes coordinated omission
//!   visible: under saturation the closed-loop p99 stays flat while the
//!   open-loop p99 grows with queueing delay.
//!
//! [`ServiceErrorKind::Overloaded`]: corgi_framework::messages::ServiceErrorKind::Overloaded
//! [`TcpServer`]: corgi_framework::TcpServer

use corgi_datagen::{open_loop_arrivals, RequestMix};
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse, ServiceError};
use corgi_framework::{ClientConfig, MatrixService, RouterConfig, ShardRouter, TcpTransport};
use criterion::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of one open-loop load run.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Client connections (each owns a worker thread and a [`TcpTransport`]).
    pub connections: usize,
    /// Aggregate arrival rate across all connections, in requests/second.
    pub rate_hz: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// Privacy levels in the request mix.
    pub levels: Vec<u8>,
    /// δ values in the mix run `0..=max_delta` (the grid a warm plan covers).
    pub max_delta: usize,
    /// Zipf exponent of the key skew (0 = uniform; ~1 = strongly skewed).
    pub zipf_exponent: f64,
    /// Tear down and reconnect a connection after this many requests on it;
    /// 0 disables churn.
    pub churn_every: usize,
    /// Seed making the schedule and key sequence reproducible.
    pub seed: u64,
    /// Per-request deadline: a response not received within it is a timeout
    /// error (and the connection is replaced).  This is what turns "the
    /// server hung" into a visible failure instead of a stuck run.
    pub request_timeout: Duration,
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self {
            connections: 8,
            rate_hz: 200.0,
            duration: Duration::from_secs(2),
            levels: vec![1],
            max_delta: 1,
            zipf_exponent: 1.0,
            churn_every: 0,
            seed: 42,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// How request issue times are paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Requests fire at their scheduled Poisson arrival times regardless of
    /// how fast the server answers; latency is measured from the scheduled
    /// arrival, so queueing delay is part of every sample.
    Open,
    /// Each worker issues its next request as soon as the previous response
    /// lands; latency is measured from the moment the request is issued.
    Closed,
}

/// Outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests in the arrival schedule.
    pub offered: usize,
    /// Requests that received *any* answer (success, shed, or error) within
    /// their deadline.  `completed == offered` means nothing hung.
    pub completed: usize,
    /// Successful privacy-forest responses.
    pub ok: usize,
    /// Requests the server shed with a retryable `Overloaded` error.
    pub shed: usize,
    /// Every other failure: timeouts, transport errors, failed reconnects.
    pub errors: usize,
    /// Connections re-established, by churn or after poisoning.
    pub reconnects: usize,
    /// Wall-clock span of the run (schedule length plus drain tail).
    pub elapsed: Duration,
    /// Latency of every successful request — from its scheduled arrival time
    /// ([`LoadMode::Open`]) or from its issue time ([`LoadMode::Closed`]).
    pub histogram: Histogram,
    /// Successful completions per shard endpoint (empty for a single-server
    /// run): which shard the router's rendezvous ranking actually answered
    /// each request on, failovers included.
    pub per_shard: Vec<(String, u64)>,
    /// Requests the routers moved past a failed or shedding shard (zero for
    /// a single-server run).
    pub failovers: u64,
}

impl LoadReport {
    /// Successful responses per second of wall-clock time.
    pub fn goodput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Offered arrival rate actually realized by the schedule.
    pub fn offered_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.offered as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// One scheduled request: its arrival offset and key.
struct Slot {
    at: Duration,
    request: MatrixRequest,
}

/// Per-worker tally folded into the [`LoadReport`].
#[derive(Default)]
struct WorkerOutcome {
    completed: usize,
    ok: usize,
    shed: usize,
    errors: usize,
    reconnects: usize,
    histogram: Histogram,
    per_shard: BTreeMap<String, u64>,
    failovers: u64,
}

/// One worker's server-side handle: a direct transport for a single address,
/// a [`ShardRouter`] over the shard set otherwise.
enum Conn {
    Direct(TcpTransport),
    // Boxed: the router (endpoints, health slots, rank memo) dwarfs the
    // direct transport, and workers move `Conn` values around on churn.
    Routed(Box<ShardRouter>),
}

impl Conn {
    fn request(&self, request: MatrixRequest) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        match self {
            Conn::Direct(transport) => transport.privacy_forest(request),
            Conn::Routed(router) => router.privacy_forest(request),
        }
    }

    /// Whether a non-shed failure left the connection unusable.  The router
    /// replaces its own per-shard connections, so only the direct transport
    /// ever asks to be rebuilt.
    fn needs_replacement(&self) -> bool {
        match self {
            Conn::Direct(transport) => transport.stats().poisoned_connections > 0,
            Conn::Routed(_) => false,
        }
    }

    /// Fold router-side shard counters into the worker tally; called before
    /// the connection is dropped (churn, replacement or end of schedule) so
    /// no completed work is lost.
    fn fold_into(&self, outcome: &mut WorkerOutcome) {
        if let Conn::Routed(router) = self {
            let stats = router.cluster_stats();
            outcome.failovers += stats.failovers;
            for peer in stats.peers {
                *outcome.per_shard.entry(peer.endpoint).or_insert(0) += peer.requests;
            }
        }
    }
}

fn connect(addrs: &[SocketAddr], timeout: Duration) -> Result<Conn, String> {
    let config = ClientConfig {
        read_timeout: Some(timeout),
        ..ClientConfig::default()
    };
    if addrs.len() == 1 {
        TcpTransport::connect_with(addrs[0], config)
            .map(Conn::Direct)
            .map_err(|e| e.to_string())
    } else {
        ShardRouter::connect(
            addrs.iter().map(ToString::to_string),
            RouterConfig {
                client: config,
                ..RouterConfig::default()
            },
        )
        .map(|router| Conn::Routed(Box::new(router)))
        .map_err(|e| e.to_string())
    }
}

/// Run one open-loop load profile against a serving address.
///
/// Blocks until every scheduled request has been resolved (answered, shed,
/// or failed against its deadline) and returns the merged [`LoadReport`].
pub fn run(addr: SocketAddr, profile: &LoadProfile) -> LoadReport {
    run_load(&[addr], LoadMode::Open, profile)
}

/// Run a load profile against one server or a whole shard set.
///
/// With a single address every worker owns a direct [`TcpTransport`]; with
/// several, every worker owns a [`ShardRouter`] over the set, so requests are
/// rendezvous-routed per cache key and fail over like production clients.
pub fn run_load(addrs: &[SocketAddr], mode: LoadMode, profile: &LoadProfile) -> LoadReport {
    assert!(!addrs.is_empty(), "load needs at least one server address");
    assert!(
        profile.connections >= 1,
        "load needs at least one connection"
    );
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mix = RequestMix::new(&profile.levels, profile.max_delta, profile.zipf_exponent);
    let arrivals = open_loop_arrivals(profile.rate_hz, profile.duration, &mut rng);
    let offered = arrivals.len();

    // Round-robin the schedule over the connections; each worker replays its
    // own slice against the shared start instant, so the aggregate process
    // keeps the configured rate regardless of per-connection speed.
    let mut schedules: Vec<Vec<Slot>> = (0..profile.connections).map(|_| Vec::new()).collect();
    for (index, at) in arrivals.into_iter().enumerate() {
        let (privacy_level, delta) = mix.sample(&mut rng);
        schedules[index % profile.connections].push(Slot {
            at,
            request: MatrixRequest {
                privacy_level,
                delta,
            },
        });
    }

    let start = Instant::now();
    let timeout = profile.request_timeout;
    let churn_every = profile.churn_every;
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                scope.spawn(move || {
                    let mut outcome = WorkerOutcome::default();
                    let mut transport = connect(addrs, timeout).ok();
                    let mut since_connect = 0usize;
                    for slot in schedule {
                        // Open loop: wait for the scheduled time, never for
                        // the previous response (that already happened — the
                        // exchange is synchronous per connection, which is
                        // exactly the queueing delay the latency records).
                        // Closed loop: fire the moment the previous exchange
                        // finishes; the schedule only supplies the keys.
                        if mode == LoadMode::Open {
                            let now = start.elapsed();
                            if slot.at > now {
                                std::thread::sleep(slot.at - now);
                            }
                        }
                        if churn_every > 0 && since_connect >= churn_every {
                            if let Some(old) = transport.take() {
                                old.fold_into(&mut outcome);
                            }
                        }
                        let conn = match &transport {
                            Some(conn) => conn,
                            None => match connect(addrs, timeout) {
                                Ok(conn) => {
                                    outcome.reconnects += 1;
                                    since_connect = 0;
                                    transport.insert(conn)
                                }
                                Err(_) => {
                                    outcome.completed += 1;
                                    outcome.errors += 1;
                                    continue;
                                }
                            },
                        };
                        since_connect += 1;
                        let issued = start.elapsed();
                        let result = conn.request(slot.request);
                        let latency = match mode {
                            LoadMode::Open => start.elapsed().saturating_sub(slot.at),
                            LoadMode::Closed => start.elapsed().saturating_sub(issued),
                        };
                        outcome.completed += 1;
                        match result {
                            Ok(_) => {
                                outcome.ok += 1;
                                outcome.histogram.record_duration(latency);
                            }
                            Err(e) if e.is_retryable() => outcome.shed += 1,
                            Err(_) => {
                                outcome.errors += 1;
                                // A non-shed failure poisoned (or may have
                                // poisoned) the stream; replace the
                                // connection rather than failing every
                                // remaining slot.
                                if conn.needs_replacement() {
                                    if let Some(old) = transport.take() {
                                        old.fold_into(&mut outcome);
                                    }
                                }
                            }
                        }
                    }
                    if let Some(conn) = transport.take() {
                        conn.fold_into(&mut outcome);
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut report = LoadReport {
        offered,
        completed: 0,
        ok: 0,
        shed: 0,
        errors: 0,
        reconnects: 0,
        elapsed,
        histogram: Histogram::new(),
        per_shard: Vec::new(),
        failovers: 0,
    };
    let mut per_shard: BTreeMap<String, u64> = BTreeMap::new();
    for outcome in outcomes {
        report.completed += outcome.completed;
        report.ok += outcome.ok;
        report.shed += outcome.shed;
        report.errors += outcome.errors;
        report.reconnects += outcome.reconnects;
        report.histogram.merge(&outcome.histogram);
        report.failovers += outcome.failovers;
        for (endpoint, requests) in outcome.per_shard {
            *per_shard.entry(endpoint).or_insert(0) += requests;
        }
    }
    report.per_shard = per_shard.into_iter().collect();
    report
}
