//! Serving-stack benchmarks: concurrent vs serial privacy-forest generation,
//! the cached request path, the wire codec, and warm-cache transport
//! round trips over loopback TCP.
//!
//! The K per-subtree LP solves of Algorithm 3 are independent, so
//! `ForestGenerator` fans them out over a fixed-size thread pool; this bench
//! pins the speed-up against the serial baseline (throughput is reported in
//! subtrees per second, so the two rows are directly comparable), plus the
//! cost of a cache hit through `CachingService` — in-process, in the wire
//! codec (encode+decode of the warm-hit forest response, against a JSON text
//! reference: the ratio the perf gate holds), and across the full
//! event-driven stack (frames, reactor, dispatch pool) on each reactor
//! backend — plus the HMAC trailer a keyed cluster seals onto every frame,
//! on each SHA-256 kernel.

use corgi_core::LocationTree;
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi_framework::messages::{MatrixRequest, RequestEnvelope, ResponseEnvelope};
use corgi_framework::transport::{encode_frame, try_decode_frame};
use corgi_framework::{
    CachingService, ClusterKey, ForestGenerator, MatrixService, ReactorBackend, ServerConfig,
    TcpServer, TcpTransport, TransportConfig, WarmRequest, WireCodec, WireMessage,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

fn generator(worker_threads: usize) -> ForestGenerator {
    let grid = corgi_hexgrid::HexGrid::new(corgi_hexgrid::HexGridConfig::san_francisco())
        .expect("static grid config is valid");
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

fn bench_forest_generation(c: &mut Criterion) {
    let pooled = generator(0);
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 1,
    };
    let subtrees = 49u64; // level 1 of the height-3 tree

    let mut group = c.benchmark_group("privacy_forest_49_subtrees");
    group.sample_size(10);
    group.throughput(Throughput::Elements(subtrees));
    group.bench_function("serial", |b| {
        b.iter(|| pooled.generate_serial(request).expect("generation"));
    });
    group.bench_function(format!("pooled_{}_threads", pooled.worker_threads()), |b| {
        b.iter(|| pooled.generate(request).expect("generation"));
    });
    group.finish();
}

fn bench_cached_request_path(c: &mut Criterion) {
    let service = CachingService::with_defaults(generator(0));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    service.privacy_forest(request).expect("warm the cache");

    let mut group = c.benchmark_group("cached_request");
    group.sample_size(30);
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        b.iter(|| service.privacy_forest(request).expect("cache hit"));
    });
    group.finish();
}

/// One framed round trip of `message` — encode, frame, unframe, decode — in
/// the wire codec or, as the reference, in the JSON text of its serde derives.
#[derive(Clone, Copy)]
enum Codec {
    Binary,
    Json,
}

impl Codec {
    fn label(self) -> &'static str {
        match self {
            Codec::Binary => "binary",
            Codec::Json => "json",
        }
    }

    fn frame<M: WireMessage + Serialize>(self, message: &M) -> Vec<u8> {
        match self {
            Codec::Binary => WireCodec::Binary.encode_frame(message),
            Codec::Json => encode_frame(
                M::KIND,
                serde_json::to_string(message)
                    .expect("serializable message")
                    .as_bytes(),
            ),
        }
    }

    fn roundtrip<M>(self, message: &M) -> M
    where
        M: WireMessage + Serialize + for<'de> Deserialize<'de>,
    {
        let mut frame = self.frame(message);
        let (_, payload) = try_decode_frame(&mut frame, usize::MAX)
            .expect("well-formed frame")
            .expect("complete frame");
        match self {
            Codec::Binary => WireCodec::Binary
                .decode_payload(&payload)
                .expect("decodable payload"),
            Codec::Json => serde_json::from_str(std::str::from_utf8(&payload).expect("utf-8"))
                .expect("decodable payload"),
        }
    }
}

/// Pure codec cost of the warm-hit payload: encode + decode of the ~70 KB
/// level-1 forest `ResponseEnvelope` (and of the tiny request envelope) in
/// the binary wire codec and in JSON text, the reference implementation the
/// wire no longer speaks.  The perf gate holds the `/binary` vs `/json`
/// ratio: losing the raw-`f64`-run encoding shows up as an
/// order-of-magnitude ratio jump on any hardware.
fn bench_wire_codec(c: &mut Criterion) {
    let service = CachingService::with_defaults(generator(0));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let forest = service.privacy_forest(request).expect("warm the cache");
    let response = ResponseEnvelope::forest(1, forest);
    let request_envelope = RequestEnvelope::new(1, request);

    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(40);
    for codec in [Codec::Binary, Codec::Json] {
        assert_eq!(codec.roundtrip(&response), response);
        group.throughput(Throughput::Bytes(codec.frame(&response).len() as u64));
        group.bench_function(format!("forest_roundtrip/{}", codec.label()), |b| {
            b.iter(|| codec.roundtrip(&response));
        });
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("request_roundtrip/{}", codec.label()), |b| {
            b.iter(|| codec.roundtrip(&request_envelope));
        });
    }
    group.finish();
}

/// Warm-cache request/response round trips across the loopback transport
/// under each reactor backend, measured in one run: requests through frame
/// encode → reactor → dispatch pool → cache hit → frame decode, with zero LP
/// solves on the measured path.  `warm_hit_roundtrip/epoll` blocks on socket readiness and answers as
/// soon as the request frame lands, while `warm_hit_roundtrip/tick` only
/// discovers it on the next 500 µs poll tick.  The perf gate holds the
/// epoll/tick ratio — losing the readiness path (a broken epoll registration
/// silently falling back to a timer somewhere) shows up as the ratio
/// collapsing toward 1.0, far past the gate on any hardware.
fn bench_reactor_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_loopback");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    for backend in [ReactorBackend::Epoll, ReactorBackend::Tick] {
        let service = Arc::new(CachingService::with_defaults(generator(0)));
        let config = TransportConfig {
            reactor_backend: backend,
            reactor_shards: 1,
            warm_on_start: Some(WarmRequest::level(1, 0)),
            ..TransportConfig::default()
        };
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn MatrixService>,
            config,
        )
        .expect("binding the loopback bench server");
        let transport = TcpTransport::connect(server.local_addr()).expect("connecting to loopback");
        transport.privacy_forest(request).expect("warm-up request");
        group.bench_function(format!("warm_hit_roundtrip/{}", backend.label()), |b| {
            b.iter(|| {
                transport
                    .privacy_forest(request)
                    .expect("cache hit over TCP")
            });
        });
        drop(transport);
        server.shutdown();
    }
    group.finish();
}

/// Sealing a 134 KB frame (the size of a level-2 forest frame) with the
/// cluster key: `seal_134k/sha_ni` on the kernel the CPU selects,
/// `seal_134k/portable` on the scalar kernel.  The perf gate caps the ratio
/// where the CPU has the SHA extensions; elsewhere both sides run the scalar
/// kernel and the ratio sits at parity.
fn bench_frame_auth(c: &mut Criterion) {
    const FRAME_LEN: usize = 134 * 1024;
    let key = ClusterKey::from_secret(b"bench-cluster");
    let mut group = c.benchmark_group("frame_auth");
    group.sample_size(40);
    group.throughput(Throughput::Bytes(FRAME_LEN as u64));
    type Seal = fn(&ClusterKey, Vec<u8>) -> Vec<u8>;
    let sides = [
        ("sha_ni", ClusterKey::seal as Seal),
        ("portable", ClusterKey::seal_portable),
    ];
    for (label, seal) in sides {
        let mut frame: Vec<u8> = (0..FRAME_LEN).map(|i| (i * 131) as u8).collect();
        group.bench_function(format!("seal_134k/{label}"), |b| {
            b.iter(|| {
                // Reuse one buffer: seal appends the trailer, so cut it off
                // again rather than timing a 134 KB copy.
                frame = seal(&key, std::mem::take(&mut frame));
                frame.truncate(FRAME_LEN);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frame_auth,
    bench_forest_generation,
    bench_cached_request_path,
    bench_wire_codec,
    bench_reactor_backend
);
criterion_main!(benches);
