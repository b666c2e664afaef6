//! The system under test, booted in-process: the paper-default CORGI server
//! (ε = 15, 10 robust iterations, 49 targets per subtree) behind the real
//! reactor and wire, alone or as a keyed two-shard replication mesh.
//!
//! Every knob the product would otherwise read from the environment (codec,
//! reactor backend, cluster key) is set here in code, and
//! [`check_environment`] refuses to run when one of those variables is set,
//! so two runs of the benchmark always measure the same configuration.

use corgi_core::LocationTree;
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi_framework::messages::MatrixRequest;
use corgi_framework::CachingService;
use corgi_framework::{
    CacheStats, ClientConfig, ClusterKey, ClusterStats, ForestGenerator, MatrixService,
    ReactorBackend, ReplicatingService, ReplicationConfig, Replicator, RouterConfig, ServerConfig,
    TcpServer, TcpTransport, TransportConfig, TransportStats, WireCodec,
};
use corgi_hexgrid::{HexGrid, HexGridConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Environment variables that change what the product runs or prints.  The
/// benchmark pins each of them in code and refuses to run when one is set.
pub const PINNED_ENV: [&str; 6] = [
    "CORGI_WIRE_CODEC",
    "CORGI_REACTOR_BACKEND",
    "CORGI_CLUSTER_KEY",
    "CORGI_CLUSTER_KEY_PREVIOUS",
    "CORGI_LP_THREADS",
    "CORGI_IPM_TRACE",
];

/// Codecs every server and client advertises: binary first, JSON fallback.
const CODECS: [WireCodec; 2] = [WireCodec::Binary, WireCodec::Json];

/// The secret of the keyed cluster, set in config rather than read from
/// `CORGI_CLUSTER_KEY`.
pub const CLUSTER_SECRET: &[u8] = b"corgi-benchmark-cluster-key";

/// Loopback ports of the two cluster shards.  The router places each key by
/// rendezvous hashing over the shard addresses, so ephemeral ports would move
/// the hot keys between shards from run to run; with these two the warm-plan
/// keys split three and three and the Zipf load about evenly.
pub const CLUSTER_PORTS: [u16; 2] = [40045, 40046];

/// Fail when any of [`PINNED_ENV`] is set.
pub fn check_environment() -> Result<(), String> {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins these in code",
            set.join(", ")
        ))
    }
}

/// A generator over the paper-default configuration and the fixed synthetic
/// San Francisco dataset.  The dataset does not depend on the benchmark
/// seed: the seed varies the traffic, not the server's inputs.
pub fn paper_generator() -> ForestGenerator {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).expect("the SF grid is valid");
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::default()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    ForestGenerator::new(LocationTree::new(grid), prior, ServerConfig::default())
}

/// One running server plus in-process handles to the layers below its socket.
pub struct Shard {
    pub server: TcpServer,
    /// The served stack (cache on top), for lookups and cache counters.
    pub service: Arc<dyn MatrixService>,
    /// The generator under the cache, for its LP-solve counters.
    pub generator: Arc<ForestGenerator>,
    /// The replication engine of a cluster shard.
    pub replicator: Option<Arc<Replicator>>,
}

impl Shard {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Subtree LP solves this shard's generator has run.
    pub fn solves(&self) -> u64 {
        let stats = self.generator.warm_stats();
        stats.warm_started + stats.cold
    }

    pub fn counters(&self) -> Counters {
        Counters {
            transport: self.server.stats(),
            cache: self.service.cache_stats().unwrap_or_default(),
            warm_started: self.generator.warm_stats().warm_started,
            cold: self.generator.warm_stats().cold,
            cluster: self.server.cluster_stats(),
        }
    }

    pub fn holds(&self, key: MatrixRequest) -> bool {
        self.service.resident(key).is_some()
    }
}

/// Lifetime counters of one or more servers, summed.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub transport: TransportStats,
    pub cache: CacheStats,
    pub warm_started: u64,
    pub cold: u64,
    pub cluster: ClusterStats,
}

impl Counters {
    pub fn add(&mut self, other: &Counters) {
        self.transport.merge(&other.transport);
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.coalesced += other.cache.coalesced;
        self.cache.evictions += other.cache.evictions;
        self.cache.entries += other.cache.entries;
        self.warm_started += other.warm_started;
        self.cold += other.cold;
        let c = &mut self.cluster;
        c.pushes_received += other.cluster.pushes_received;
        c.pushes_deduped += other.cluster.pushes_deduped;
        c.peers.extend(other.cluster.peers.iter().cloned());
    }
}

/// Boot one server on `addr` (port 0 picks a free port).  A cluster shard
/// (`key` set) stacks `CachingService(ReplicatingService(ForestGenerator))`,
/// authenticates every frame and accepts forest-sized `WarmPush` frames; its
/// peers are added by the caller once their ports are known.
pub fn boot(addr: SocketAddr, key: Option<&ClusterKey>) -> std::io::Result<Shard> {
    let generator = Arc::new(paper_generator());
    let mut config = TransportConfig {
        codecs: CODECS.to_vec(),
        cluster_key: key.cloned(),
        reactor_backend: ReactorBackend::Epoll,
        ..TransportConfig::default()
    };
    let (service, replicator): (Arc<dyn MatrixService>, _) = match key {
        None => (
            Arc::new(CachingService::with_defaults(Arc::clone(&generator))),
            None,
        ),
        Some(key) => {
            let replicator = Replicator::new(ReplicationConfig {
                codecs: CODECS.to_vec(),
                cluster_key: Some(key.clone()),
                ..ReplicationConfig::default()
            });
            config.replication = Some(Arc::clone(&replicator));
            config.max_inbound_frame = 8 * 1024 * 1024;
            (
                Arc::new(CachingService::with_defaults(ReplicatingService::new(
                    Arc::clone(&generator),
                    Arc::clone(&replicator),
                ))),
                Some(replicator),
            )
        }
    };
    let server = TcpServer::bind(addr, Arc::clone(&service), config)?;
    Ok(Shard {
        server,
        service,
        generator,
        replicator,
    })
}

/// Boot on any free loopback port.
pub fn boot_any(key: Option<&ClusterKey>) -> Shard {
    boot(SocketAddr::from(([127, 0, 0, 1], 0)), key).expect("binding a loopback port")
}

/// Client settings: pinned codecs, the cluster key when keyed, and a read
/// timeout long enough for the slowest cold solve.
pub fn client(key: Option<&ClusterKey>) -> ClientConfig {
    ClientConfig {
        codecs: CODECS.to_vec(),
        cluster_key: key.cloned(),
        read_timeout: Some(Duration::from_secs(120)),
        ..ClientConfig::default()
    }
}

pub fn router(key: &ClusterKey) -> RouterConfig {
    RouterConfig {
        client: client(Some(key)),
        ..RouterConfig::default()
    }
}

pub fn connect(addr: SocketAddr, key: Option<&ClusterKey>) -> TcpTransport {
    TcpTransport::connect_with(addr, client(key)).expect("connecting to a benchmark server")
}

/// The resolved configuration the header reports.  The LP kernels run on one
/// thread because `CORGI_LP_THREADS`, their only knob, is refused.
pub fn describe() -> String {
    let shard = boot_any(None);
    let conn = connect(shard.addr(), None);
    let line = format!(
        "backend={} codec={} reactor_shards={} dispatch_threads={} lp_workers={} \
         lp_kernel_threads=1 nproc={} commit={}",
        shard.server.backend().label(),
        conn.codec(),
        shard.server.shard_count(),
        TransportConfig::default().dispatch_threads,
        shard.generator.worker_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_commit(),
    );
    drop(conn);
    shard.server.shutdown();
    line
}

/// The commit of the working directory's `.git`, read without running git.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
