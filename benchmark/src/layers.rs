//! Per-layer measurements, taken from the benchmark's own files around calls
//! into each layer's public entry point: traced replays of sampled requests,
//! shadow generators replaying a workload's solve sequence, spans with their
//! self times, and the in-process counters of every layer.

use crate::drive::{median, Traced};
use crate::stack::{paper_generator, Counters};
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse, ResponseEnvelope};
use corgi_framework::transport::try_decode_frame;
use corgi_framework::{ClusterKey, ClusterStats, ForestGenerator, MatrixService, WireCodec};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Largest frame the decode replay accepts (the client default).
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// One span: a named interval of one traced request, in nanoseconds since
/// the run's epoch.  `parent` names the span that contains it, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace_id: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Raw per-layer samples, reduced to medians at the end of a run.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn medians_into(&self, metrics: &mut Metrics) {
        for (name, values) in &self.0 {
            metrics.insert(name.clone(), median(values));
        }
    }
}

/// Replays of each layer on the key of a traced request.
pub struct Replayer<'a> {
    pub epoch: Instant,
    /// The key sealing and opening frames: the cluster's own on a keyed
    /// workload, the benchmark key elsewhere (what keying would cost there).
    pub key: &'a ClusterKey,
    /// Whether the workload's frames are sealed, so the MAC is on its path.
    pub keyed: bool,
}

impl Replayer<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record the real call's spans, then replay lookup, encode, decode, seal
    /// and open on its key, and for a miss one more wire request (now a hit).
    /// `stack` is the in-process service that owns the key; `wire` is an idle
    /// connection to it.
    pub fn replay(
        &self,
        traced: &Traced,
        stack: &dyn MatrixService,
        wire: &dyn MatrixService,
        samples: &mut Samples,
        spans: &mut Vec<Span>,
    ) {
        let id = traced.id;
        let s = traced.sample;
        let level = traced.request.privacy_level;
        spans.push(span(id, "request", None, s.due, s.done));
        spans.push(span(id, "gen.lag", Some("request"), s.due, s.sent));
        spans.push(span(id, "wire", Some("request"), s.sent, s.done));
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
            let start = self.now();
            f();
            let end = self.now();
            spans.push(span(id, name, None, start, end));
            (end - start) as f64
        };
        let lookup_ns = timed("replay.lookup", &mut || {
            std::hint::black_box(stack.privacy_forest(traced.request).ok());
        });
        let mut frame = Vec::new();
        let encode_ns = timed("replay.encode", &mut || {
            frame = WireCodec::Binary
                .encode_frame(&ResponseEnvelope::forest(id, Arc::clone(&traced.forest)));
        });
        let mut buffer = frame.clone();
        let decode_ns = timed("replay.decode", &mut || {
            let (_, payload) = try_decode_frame(&mut buffer, MAX_FRAME)
                .expect("replayed frame is well formed")
                .expect("replayed frame is complete");
            let envelope: ResponseEnvelope = WireCodec::Binary
                .decode_payload(&payload)
                .expect("replayed payload decodes");
            std::hint::black_box(envelope);
        });
        let mut unsealed = Some(frame);
        let mut sealed = Vec::new();
        let seal_ns = timed("replay.seal", &mut || {
            sealed = self.key.seal(unsealed.take().expect("sealed once"));
        });
        let open_ns = timed("replay.open", &mut || {
            std::hint::black_box(self.key.open(&sealed).expect("own seal opens"));
        });
        let rtt_us = if traced.hit {
            s.rtt_us()
        } else {
            let start = self.now();
            let ok = wire.privacy_forest(traced.request).is_ok();
            let end = self.now();
            spans.push(span(id, "replay.wire_hit", None, start, end));
            if ok {
                (end - start) as f64 / 1e3
            } else {
                f64::INFINITY
            }
        };
        let mut layers_ns = lookup_ns + encode_ns + decode_ns;
        if self.keyed {
            layers_ns += seal_ns + open_ns;
        }
        samples.push("service.lookup_ns", lookup_ns);
        samples.push(format!("codec.encode_us.l{level}"), encode_ns / 1e3);
        samples.push(format!("codec.decode_us.l{level}"), decode_ns / 1e3);
        samples.push(format!("auth.seal_us.l{level}"), seal_ns / 1e3);
        samples.push(format!("auth.open_us.l{level}"), open_ns / 1e3);
        samples.push("transport.residual_us", rtt_us - layers_ns / 1e3);
    }
}

fn span(
    trace_id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
) -> Span {
    Span {
        trace_id,
        name,
        parent,
        start_ns,
        end_ns,
    }
}

/// Replay a solve sequence on a fresh generator with the server's
/// configuration (so the warm-start history matches a fresh server), timing
/// each forest.  `serial` uses the one-thread path instead of the pool.
pub fn shadow_generate(
    sequence: &[MatrixRequest],
    serial: bool,
) -> (Vec<PrivacyForestResponse>, Vec<f64>) {
    let generator = paper_generator();
    sequence
        .iter()
        .map(|&request| {
            let start = Instant::now();
            let forest = if serial {
                generator.generate_serial(request)
            } else {
                generator.generate(request)
            }
            .expect("shadow generation succeeds");
            (forest, start.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// Time both shadow generators over `sequence` and the subtree formulation
/// at each of its levels.  Returns the pooled shadow's total time in ms.
pub fn generator_layers(sequence: &[MatrixRequest], samples: &mut Samples) -> f64 {
    let (_, pooled) = shadow_generate(sequence, false);
    let (_, serial) = shadow_generate(sequence, true);
    for ((request, pooled_ms), serial_ms) in sequence.iter().zip(&pooled).zip(&serial) {
        let level = request.privacy_level;
        samples.push(format!("generator.forest_ms.l{level}"), *pooled_ms);
        samples.push(format!("generator.serial_ms.l{level}"), *serial_ms);
    }
    let generator = paper_generator();
    let mut levels: Vec<u8> = sequence.iter().map(|r| r.privacy_level).collect();
    levels.sort_unstable();
    levels.dedup();
    for level in levels {
        formulation_ms(&generator, level, samples);
    }
    pooled.iter().sum()
}

fn formulation_ms(generator: &ForestGenerator, level: u8, samples: &mut Samples) {
    let forest = generator
        .tree()
        .privacy_forest(level)
        .expect("level exists");
    for subtree in &forest {
        let start = Instant::now();
        std::hint::black_box(
            generator
                .problem_for_subtree(subtree)
                .expect("problem builds"),
        );
        samples.push(
            format!("formulation.build_ms.l{level}"),
            start.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Pool speed-up per level: serial over pooled median forest time.
pub fn pool_speedups(metrics: &mut Metrics) {
    for level in [1, 2] {
        let pooled = metrics.get(&format!("generator.forest_ms.l{level}"));
        let serial = metrics.get(&format!("generator.serial_ms.l{level}"));
        if let (Some(pooled), Some(serial)) = (pooled, serial) {
            let speedup = serial / pooled;
            metrics.insert(format!("generator.pool_speedup.l{level}"), speedup);
        }
    }
}

/// Lifetime counters of the servers and routers a workload used.
pub fn counter_metrics(servers: &Counters, routers: &ClusterStats, metrics: &mut Metrics) {
    let t = &servers.transport;
    let c = &servers.cache;
    let pairs = [
        ("transport.requests_admitted", t.requests_admitted),
        ("transport.requests_shed", t.requests_shed),
        ("transport.backpressure_stalls", t.backpressure_stalls),
        ("transport.read_buffer_high_water", t.read_buffer_high_water),
        ("transport.transport_errors", t.transport_errors),
        ("cache.hits", c.hits),
        ("cache.misses", c.misses),
        ("cache.coalesced", c.coalesced),
        ("cache.evictions", c.evictions),
        ("generator.warm_started", servers.warm_started),
        ("generator.cold", servers.cold),
        (
            "cluster.pushes_sent",
            servers.cluster.peers.iter().map(|p| p.pushes_sent).sum(),
        ),
        ("cluster.pushes_received", servers.cluster.pushes_received),
        ("cluster.pushes_deduped", servers.cluster.pushes_deduped),
        (
            "cluster.pushes_dropped",
            servers.cluster.peers.iter().map(|p| p.pushes_dropped).sum(),
        ),
        ("router.failovers", routers.failovers),
        ("router.rank_memo_hits", routers.rank_memo_hits),
        (
            "router.connects",
            routers.peers.iter().map(|p| p.connects).sum(),
        ),
    ];
    for (name, value) in pairs {
        metrics.insert(name.to_string(), value as f64);
    }
    let ratio = |part: u64, rest: u64| {
        if part + rest == 0 {
            0.0
        } else {
            part as f64 / (part + rest) as f64
        }
    };
    metrics.insert(
        "transport.bytes_out_per_req".into(),
        t.bytes_out as f64 / t.requests_admitted.max(1) as f64,
    );
    metrics.insert("cache.hit_ratio".into(), ratio(c.hits, c.misses));
    metrics.insert(
        "generator.warm_share".into(),
        ratio(servers.warm_started, servers.cold),
    );
}

/// Median self time per span name, in microseconds: a span's duration minus
/// the part of it that its child spans cover.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for group in by_trace.values() {
        for span in group {
            let mut children: Vec<(u64, u64)> = group
                .iter()
                .filter(|child| child.parent == Some(span.name))
                .map(|child| {
                    (
                        child.start_ns.max(span.start_ns),
                        child.end_ns.min(span.end_ns),
                    )
                })
                .filter(|(start, end)| start < end)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let own = (span.end_ns - span.start_ns - covered) as f64 / 1e3;
            samples.entry(span.name).or_default().push(own);
        }
    }
    samples
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = serde_json::json!({
            "trace_id": span.trace_id,
            "name": span.name,
            "parent": span.parent,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns
        });
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "request", None, 0, 1000),
            span(1, "gen.lag", Some("request"), 0, 100),
            span(1, "wire", Some("request"), 50, 900),
            span(2, "request", None, 0, 10_000),
        ];
        let own = self_times_us(&spans);
        // Trace 1: 1000 − |[0, 900)| = 100 ns; trace 2: 10 µs; median 5.05.
        assert_eq!(own["request"], (0.1 + 10.0) / 2.0);
        assert_eq!(own["wire"], 0.85);
    }
}
