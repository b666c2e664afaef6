//! Open-loop load generator against a self-hosted loopback server.
//!
//! Boots the full serving stack (caching service → forest generator → LP
//! solver pool behind a `TcpServer`), warms the request mix, replays an
//! open-loop Poisson arrival schedule against it, and reports the latency
//! histogram — on stdout and, when `CORGI_BENCH_JSON` names a file, as a
//! JSONL record gated by `perf_gate` on `p99_ns`.
//!
//! ```text
//! loadgen [--rate HZ] [--duration-secs S] [--connections N] [--zipf S]
//!         [--levels L1,L2,..] [--max-delta D] [--churn N] [--seed N]
//!         [--timeout-secs S] [--label NAME] [--profile calibrated]
//!         [--shards N] [--mode open|closed] [--reactor-shards N]
//!         [--chaos SEED]
//! ```
//!
//! `--profile calibrated` selects the fixed heavy-lane shape (the one the
//! `BENCH_baseline.json` entry was recorded with); explicit flags override
//! its fields.  `--shards N` boots N servers wired into a replicating
//! cluster and drives them through a [`ShardRouter`] per worker, reporting
//! per-shard completions.  `--mode closed` runs a closed-loop pass *after*
//! the open-loop one and prints the p99 delta — the size of the queueing
//! delay that closed-loop (coordinated-omission-prone) measurement hides.
//! `--chaos SEED` (requires `--shards` ≥ 2) enables liveness probing on the
//! shards, then kills the `SEED % shards`-th one ~40 % into the run, holds it
//! down for a beat, and restarts it at the same address with a cold cache
//! that is re-warmed from the surviving peers (`Digest`/`DigestReply`, zero
//! LP solves).  The run still fails on any hung request or hard error, and
//! the bench artifact gains `peers_down` / `rewarm_keys_pulled` fields.
//! The reactor backend follows `CORGI_REACTOR_BACKEND` like every server
//! (`--reactor-shards N` pins the per-server reactor thread count; 0 = one
//! per core).  Exits nonzero if any request failed with a non-shed error or
//! hung past its deadline.
//!
//! # Client-side connection cap
//!
//! Every `--connections` unit is a client-side OS thread holding one open
//! TCP connection, so the generator itself tops out around **~2000
//! connections** under default thread-stack and file-descriptor limits —
//! well before the server does.  That ceiling is a property of the *client*:
//! to push the server harder, raise `--reactor-shards` (server reactor
//! threads; 0 = one per core) and fan the offered load out over several
//! loadgen processes rather than one giant one.
//!
//! [`ShardRouter`]: corgi_framework::ShardRouter

use corgi_bench::loadgen::{run_load, LoadMode, LoadProfile};
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi_framework::{
    CachingService, ClientConfig, ForestGenerator, HealthConfig, MatrixService, ReplicatingService,
    ReplicationConfig, Replicator, ServerConfig, TcpServer, TransportConfig, WarmRequest,
};
use corgi_hexgrid::{HexGrid, HexGridConfig};
use criterion::report_histogram;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    match flag_value(name) {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("invalid value {raw:?} for {name}")),
        None => default,
    }
}

const USAGE: &str = "\
Open-loop load generator against a self-hosted loopback server.

Usage:
  loadgen [--rate HZ] [--duration-secs S] [--connections N] [--zipf S]
          [--levels L1,L2,..] [--max-delta D] [--churn N] [--seed N]
          [--timeout-secs S] [--label NAME] [--profile calibrated]
          [--shards N] [--mode open|closed] [--reactor-shards N]
          [--chaos SEED]

--chaos SEED (with --shards >= 2) turns the run into a resilience soak: the
SEED % shards-th server is killed ~40% into the schedule, held down briefly,
and restarted at the same address, re-warming its cold cache from the peers
over Digest frames with zero LP solves.  Probing is enabled on every shard so
the kill shows up in peers_down; the run still fails on any hung request or
hard error.

Each of the N --connections is a client-side OS thread holding one open TCP
connection, so the generator itself tops out around ~2000 connections under
default thread-stack and file-descriptor limits.  That cap is about the
client, not the server: to push the server harder, raise --reactor-shards
(server reactor threads; 0 = one per core) and spread the offered load over
several loadgen processes instead of one giant one.
";

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    // The calibrated profile is the heavy-lane CI shape: enough load to be a
    // meaningful p99 sample on a warm cache, short enough for CI.
    let calibrated = flag_value("--profile").as_deref() == Some("calibrated");
    let base = if calibrated {
        LoadProfile {
            connections: 8,
            rate_hz: 400.0,
            duration: Duration::from_secs(5),
            levels: vec![1],
            max_delta: 1,
            zipf_exponent: 1.0,
            churn_every: 200,
            seed: 42,
            request_timeout: Duration::from_secs(10),
        }
    } else {
        LoadProfile::default()
    };

    let levels: Vec<u8> = match flag_value("--levels") {
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("invalid privacy level {s:?}"))
            })
            .collect(),
        None => base.levels.clone(),
    };
    let profile = LoadProfile {
        connections: parse_flag("--connections", base.connections),
        rate_hz: parse_flag("--rate", base.rate_hz),
        duration: Duration::from_secs_f64(parse_flag(
            "--duration-secs",
            base.duration.as_secs_f64(),
        )),
        levels,
        max_delta: parse_flag("--max-delta", base.max_delta),
        zipf_exponent: parse_flag("--zipf", base.zipf_exponent),
        churn_every: parse_flag("--churn", base.churn_every),
        seed: parse_flag("--seed", base.seed),
        request_timeout: Duration::from_secs_f64(parse_flag(
            "--timeout-secs",
            base.request_timeout.as_secs_f64(),
        )),
    };
    let shards = parse_flag("--shards", 1usize).max(1);
    let reactor_shards = parse_flag("--reactor-shards", 0usize);
    let chaos: Option<u64> = flag_value("--chaos").map(|raw| {
        raw.parse()
            .unwrap_or_else(|_| panic!("invalid value {raw:?} for --chaos"))
    });
    if chaos.is_some() {
        assert!(
            shards >= 2,
            "--chaos needs --shards >= 2 (a peer must survive the kill)"
        );
    }
    // Aggressive probing so a mid-run kill is detected well inside the
    // schedule (threshold 2 at this cadence condemns a dead peer in ~400 ms).
    let chaos_health = HealthConfig {
        probe_interval: Duration::from_millis(200),
        failure_threshold: 2,
        ..HealthConfig::default()
    };
    let closed_pass = match flag_value("--mode").as_deref() {
        None | Some("open") => false,
        Some("closed") => true,
        Some(other) => panic!("invalid value {other:?} for --mode (open|closed)"),
    };
    let label = flag_value("--label").unwrap_or_else(|| {
        let base = if calibrated { "calibrated" } else { "smoke" };
        let mut label = if shards > 1 {
            format!("{base}-{shards}shard")
        } else {
            base.to_string()
        };
        if chaos.is_some() {
            label.push_str("-chaos");
        }
        label
    });

    // The serving stack of the loopback benches: SF grid, synthetic check-ins,
    // fast solver settings — the measured path is frames → reactor → dispatch
    // → cache, with every mix key warmed before load starts.  With --shards N
    // the same stack is booted N times and the shards are wired into a full
    // replication mesh, exactly like examples/cluster.rs.
    let grid = HexGrid::new(HexGridConfig::san_francisco()).expect("static grid config is valid");
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let server_config = ServerConfig {
        robust_iterations: 1,
        targets_per_subtree: 3,
        worker_threads: 2,
        ..ServerConfig::default()
    };
    let warm_plan = WarmRequest {
        privacy_levels: profile.levels.clone(),
        deltas: (0..=profile.max_delta).collect(),
    };

    let mut servers: Vec<Option<TcpServer>> = Vec::with_capacity(shards);
    let mut services: Vec<Arc<dyn MatrixService>> = Vec::with_capacity(shards);
    let mut replicators: Vec<Arc<Replicator>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let generator = ForestGenerator::new(
            corgi_core::LocationTree::new(grid.clone()),
            prior.clone(),
            server_config,
        );
        let (service, transport_config): (Arc<dyn MatrixService>, TransportConfig) = if shards > 1 {
            let replicator = Replicator::new(ReplicationConfig {
                health: chaos.map(|_| chaos_health.clone()),
                ..ReplicationConfig::default()
            });
            replicators.push(Arc::clone(&replicator));
            (
                Arc::new(CachingService::with_defaults(ReplicatingService::new(
                    generator,
                    Arc::clone(&replicator),
                ))),
                TransportConfig {
                    replication: Some(replicator),
                    reactor_shards,
                    ..TransportConfig::default()
                },
            )
        } else {
            (
                Arc::new(CachingService::with_defaults(generator)),
                TransportConfig {
                    reactor_shards,
                    ..TransportConfig::default()
                },
            )
        };
        let server = TcpServer::bind("127.0.0.1:0", Arc::clone(&service), transport_config)
            .expect("binding a loopback load server");
        services.push(service);
        servers.push(Some(server));
    }
    let addrs: Vec<SocketAddr> = servers
        .iter()
        .map(|s| s.as_ref().expect("just booted").local_addr())
        .collect();
    // Full mesh: every shard pushes its cold-miss solves to every other.
    for (index, replicator) in replicators.iter().enumerate() {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer != index {
                replicator.add_peer(addr.to_string());
            }
        }
    }
    // Warm in-process (not via warm_on_start) so load never races the warming.
    for service in &services {
        let report = corgi_framework::warm(service.as_ref(), &warm_plan);
        assert!(
            report.failures.is_empty(),
            "warming the request mix failed: {:?}",
            report.failures
        );
    }

    println!(
        "loadgen/{label}: {} conns, {:.0} req/s offered for {:?}, Zipf s={} over {} keys, churn every {}, {} shard(s), {} backend x{} reactor(s)",
        profile.connections,
        profile.rate_hz,
        profile.duration,
        profile.zipf_exponent,
        profile.levels.len() * (profile.max_delta + 1),
        if profile.churn_every == 0 {
            "∞".to_string()
        } else {
            profile.churn_every.to_string()
        },
        shards,
        servers[0].as_ref().expect("just booted").backend().label(),
        servers[0].as_ref().expect("just booted").shard_count(),
    );

    // The chaos thread kills one shard mid-schedule, holds it down long
    // enough for the survivors' probes to condemn it, then restarts it at the
    // same address with a cold cache and re-warms it from the peers — the
    // load keeps flowing through router failover the whole time.
    let chaos_handle = chaos.map(|seed| {
        let victim = (seed as usize) % shards;
        let victim_server = servers[victim].take().expect("victim booted");
        let victim_addr = addrs[victim];
        let peer_endpoints: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != victim)
            .map(|(_, addr)| addr.to_string())
            .collect();
        let grid = grid.clone();
        let prior = prior.clone();
        let health = chaos_health.clone();
        let kill_after = profile.duration.mul_f64(0.4);
        let hold_down = profile.duration.mul_f64(0.2).min(Duration::from_secs(1));
        let handle = std::thread::spawn(move || {
            std::thread::sleep(kill_after);
            victim_server.shutdown();
            std::thread::sleep(hold_down);
            let replicator = Replicator::new(ReplicationConfig {
                health: Some(health),
                ..ReplicationConfig::default()
            });
            for endpoint in &peer_endpoints {
                replicator.add_peer(endpoint.clone());
            }
            let service: Arc<dyn MatrixService> =
                Arc::new(CachingService::with_defaults(ReplicatingService::new(
                    ForestGenerator::new(corgi_core::LocationTree::new(grid), prior, server_config),
                    Arc::clone(&replicator),
                )));
            // The old listener's port lingers briefly after shutdown; retry
            // the same-address rebind until it sticks.
            let deadline = Instant::now() + Duration::from_secs(10);
            let server = loop {
                match TcpServer::bind(
                    victim_addr,
                    Arc::clone(&service),
                    TransportConfig {
                        replication: Some(Arc::clone(&replicator)),
                        reactor_shards,
                        ..TransportConfig::default()
                    },
                ) {
                    Ok(server) => break server,
                    Err(error) => {
                        assert!(
                            Instant::now() < deadline,
                            "rebinding the killed shard at {victim_addr}: {error}"
                        );
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            };
            let rewarm = server.rewarm_from_peers(&peer_endpoints, ClientConfig::default());
            (server, rewarm)
        });
        (victim, handle)
    });

    let report = run_load(&addrs, LoadMode::Open, &profile);
    println!(
        "loadgen/{label}: offered {}, ok {}, shed {}, errors {}, reconnects {}, goodput {:.1} req/s",
        report.offered,
        report.ok,
        report.shed,
        report.errors,
        report.reconnects,
        report.goodput_rps(),
    );

    // Join the chaos thread (it finished its re-warm well inside the
    // schedule) and put the revived shard back so the summary below covers it.
    let chaos_rewarm = chaos_handle.map(|(victim, handle)| {
        let (server, rewarm) = handle.join().expect("chaos thread panicked");
        println!(
            "loadgen/{label}: chaos killed shard {} mid-run; re-warm pulled {} key(s) from {} peer(s) in {} ms, complete: {}",
            addrs[victim],
            rewarm.pulled,
            rewarm.peers_reached,
            rewarm.elapsed_ms,
            rewarm.is_complete(),
        );
        assert!(
            rewarm.is_complete(),
            "the revived shard must re-warm fully from its peers: {rewarm:?}"
        );
        servers[victim] = Some(server);
        rewarm
    });
    let peers_down: u64 = servers
        .iter()
        .flatten()
        .map(|server| server.cluster_stats().peers_down)
        .sum();
    if chaos.is_some() {
        assert!(
            peers_down >= 1,
            "the survivors' probes must have condemned the killed shard"
        );
    }

    for server in servers.iter().flatten() {
        let stats = server.stats();
        println!(
            "loadgen/{label}: server {} admitted {}, shed {}, read-buffer high water {} B",
            server.local_addr(),
            stats.requests_admitted,
            stats.requests_shed,
            stats.read_buffer_high_water,
        );
    }
    if shards > 1 {
        for (endpoint, completed) in &report.per_shard {
            println!("loadgen/{label}: shard {endpoint} completed {completed}");
        }
        println!("loadgen/{label}: router failovers {}", report.failovers);
    }
    let mut extras = vec![
        ("goodput_rps", report.goodput_rps()),
        ("offered_rps", report.offered_rps()),
        ("shed", report.shed as f64),
        ("errors", report.errors as f64),
    ];
    if let Some(rewarm) = &chaos_rewarm {
        extras.push(("peers_down", peers_down as f64));
        extras.push(("rewarm_keys_pulled", rewarm.pulled as f64));
    }
    report_histogram(
        &format!("loadgen/{label}"),
        &report.histogram,
        &extras,
        Some("p99_ns"),
    );

    // The closed-loop pass reuses the warmed cluster: each worker fires its
    // next request the moment the previous answer lands, so its histogram is
    // pure service time.  The delta against the open-loop p99 is exactly the
    // queueing delay a closed-loop harness would have silently omitted.
    let mut closed_errors = 0usize;
    if closed_pass {
        let closed = run_load(&addrs, LoadMode::Closed, &profile);
        closed_errors = closed.errors;
        let open_p99 = report.histogram.percentile(99.0);
        let closed_p99 = closed.histogram.percentile(99.0);
        println!(
            "loadgen/{label}: closed-loop ok {}, shed {}, errors {}, goodput {:.1} req/s",
            closed.ok,
            closed.shed,
            closed.errors,
            closed.goodput_rps(),
        );
        println!(
            "loadgen/{label}: p99 open {:.3} ms vs closed {:.3} ms — open-loop queueing delay {:+.3} ms",
            open_p99 as f64 / 1e6,
            closed_p99 as f64 / 1e6,
            (open_p99 as f64 - closed_p99 as f64) / 1e6,
        );
        report_histogram(
            &format!("loadgen/{label}-closed"),
            &closed.histogram,
            &[
                ("goodput_rps", closed.goodput_rps()),
                ("open_p99_ns", open_p99 as f64),
            ],
            None,
        );
    }
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }

    if report.errors > 0 || report.completed != report.offered || closed_errors > 0 {
        eprintln!(
            "loadgen/{label}: FAILED — {} open-loop errors, {} closed-loop errors, {}/{} completed",
            report.errors, closed_errors, report.completed, report.offered
        );
        std::process::exit(1);
    }
}
