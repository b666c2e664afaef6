//! The four workloads.  Each boots the real serving stack, drives it over
//! loopback with the product's own clients, and reports the same end-to-end
//! metrics, so every workload is compared against itself across commits:
//!
//! * `setup_s` — median of the workload's set-ups (boot, plus warm plan and
//!   replication where the workload has them);
//! * `l1_p50_ms` and `l2_p50_ms` — median latency of the workload's timed
//!   level-1 and level-2 requests (hits in the open loops, cold misses in the
//!   sweep): in the open loops the median over the run's windows of each
//!   window's median, in the sweep the median of all the run's solves.
//!
//! Only medians of requests that do not saturate the host are end to end.
//! On a shared two-vCPU virtual machine the CPU left over by its neighbours
//! drifts from minute to minute; a saturating measurement loses exactly that
//! share, while the median of an unsaturated latency barely moves.  So the
//! tails (`latency.p90_ms`, `latency.p99_ms`) and the closed-loop rates
//! (`closed_loop.rate_per_s`: hits at capacity, forests solved, misses solved
//! beside hits) are per-layer metrics of the traced run.

use crate::check::Checker;
use crate::drive::{
    key_of, median, mix_until, percentile, request, stream_seed, Driver, Run, Sample,
};
use crate::layers::{
    counter_metrics, generator_layers, pool_speedups, shadow_generate, Metrics, Replayer, Samples,
    Span,
};
use crate::stack::{self, boot, boot_any, connect, paper_generator, Counters, Shard};
use corgi_datagen::RequestMix;
use corgi_framework::messages::MatrixRequest;
use corgi_framework::{
    rendezvous_rank, warm, ClusterKey, ClusterStats, MatrixService, ShardRouter, WarmRequest,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "warm_hits",
    "cold_sweep",
    "hits_beside_misses",
    "cluster_keyed",
];

/// Requests per sampled (traced) hit; every miss is traced.
const TRACE_EVERY_HIT: u64 = 50;
/// Largest δ the sweeps and miss slices draw from.  Level-2 solves cost about
/// the same for every δ up to 40 and up to 1.7× more above it, so keeping the
/// draws below keeps runs with different seeds comparable.
const MAX_DELTA: usize = 40;
/// Closed-loop traffic before the first timed repetition, discarded.
const WARM_UP: Duration = Duration::from_millis(300);
/// Window of the open-loop latency medians of the unkeyed hit workloads:
/// at least a hundred requests of each level at their rates.
const WINDOW: Duration = Duration::from_millis(500);
/// The keyed cluster's window: about 25 level-2 requests at its rate.
const CLUSTER_WINDOW: Duration = Duration::from_secs(1);

/// What one run of one workload is asked to do.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One short repetition, level-1 keys only: keeps the benchmark compiling
    /// and correct in a test, measures nothing.
    pub smoke: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

pub fn run(params: &Params) -> Report {
    let mut bench = Bench::new(params);
    match params.workload.as_str() {
        "warm_hits" => bench.warm_hits(),
        "cold_sweep" => bench.cold_sweep(),
        "hits_beside_misses" => bench.hits_beside_misses(),
        "cluster_keyed" => bench.cluster_keyed(),
        other => panic!("unknown workload {other}"),
    }
    bench.finish()
}

/// Shared state of one workload run.
struct Bench<'a> {
    params: &'a Params,
    epoch: Instant,
    key: ClusterKey,
    checker: Checker,
    entries: Vec<usize>,
    levels: Vec<u8>,
    plan: WarmRequest,
    setups: usize,
    min_reps: usize,
    layers: Samples,
    report: Report,
    /// Cache hits the traced replays added to the servers' counters.
    replay_lookups: u64,
    /// Forests pulled by every anti-entropy re-warm of the run.
    rewarm_pulled: usize,
}

/// Per-repetition statistics of the timed requests.
#[derive(Default)]
struct Reps {
    /// Median latency of the level-1 and of the level-2 requests.
    p50: [Vec<f64>; 2],
    /// Tails over both levels.
    p90: Vec<f64>,
    p99: Vec<f64>,
    /// Closed-loop completions per second.
    rates: Vec<f64>,
    /// Median latency of the level-1 requests of traced repetitions.
    traced_p50: Vec<f64>,
    /// Every timed sample, for the generator-lag and round-trip layers.
    samples: Vec<Sample>,
}

impl Reps {
    /// Add the statistics of a repetition's timed requests, cut by due time
    /// into windows of about `window` (`None`: one window).  The end-to-end
    /// medians are medians over windows, so a burst of host steal that
    /// covers fewer than half of a run's windows does not move them.
    fn latencies(&mut self, samples: &[Sample], traced: bool, window: Option<Duration>) {
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|s| s.due);
        let span_ns = match (sorted.first(), sorted.last()) {
            (Some(first), Some(last)) => (last.due - first.due) as f64,
            _ => return,
        };
        let windows = window.map_or(1.0, |w| (span_ns / w.as_nanos() as f64).round().max(1.0));
        let per_window = sorted.len().div_ceil(windows as usize);
        for chunk in sorted.chunks(per_window) {
            self.window(chunk, traced);
        }
        self.samples.extend_from_slice(samples);
    }

    fn window(&mut self, samples: &[Sample], traced: bool) {
        let ms = |level: Option<u8>| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| level.is_none_or(|level| s.level == level))
                .map(Sample::latency_ms)
                .collect()
        };
        if traced {
            self.traced_p50.push(percentile(&ms(Some(1)), 50.0));
        } else {
            for (level, p50) in (1..).zip(&mut self.p50) {
                let level_ms = ms(Some(level));
                if !level_ms.is_empty() {
                    p50.push(percentile(&level_ms, 50.0));
                }
            }
            let all = ms(None);
            self.p90.push(percentile(&all, 90.0));
            self.p99.push(percentile(&all, 99.0));
        }
    }
}

impl<'a> Bench<'a> {
    fn new(params: &'a Params) -> Self {
        let checker = Checker::new(paper_generator());
        let levels = if params.smoke { vec![1] } else { vec![1, 2] };
        Self {
            params,
            epoch: Instant::now(),
            key: ClusterKey::from_secret(stack::CLUSTER_SECRET),
            entries: checker.entries_per_level(),
            checker,
            plan: WarmRequest {
                privacy_levels: levels.clone(),
                deltas: (0..=2).collect(),
            },
            levels,
            setups: if params.smoke { 1 } else { 3 },
            // A smoke run still needs one untraced and one traced repetition.
            min_reps: if params.smoke { 2 } else { 3 },
            layers: Samples::default(),
            report: Report::default(),
            replay_lookups: 0,
            rewarm_pulled: 0,
        }
    }

    fn driver(&self, trace_every: u64, hits: bool) -> Driver<'_> {
        Driver {
            epoch: self.epoch,
            entries: &self.entries,
            trace_every,
            hits,
            keep_replies: !hits,
        }
    }

    /// Whether repetition `rep` is traced: every other one in a traced run,
    /// so the run also measures what tracing costs.
    fn traced(&self, rep: usize) -> bool {
        self.params.trace && rep % 2 == 1
    }

    fn trace_every(&self, rep: usize, hits: bool) -> u64 {
        match (self.traced(rep), hits) {
            (false, _) => 0,
            (true, true) => TRACE_EVERY_HIT,
            (true, false) => 1,
        }
    }

    fn seconds(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.params.seconds * share)
    }

    /// Whether repetition `rep` runs: the first `min_reps` always do; after
    /// them (outside a smoke run) one more starts only if, as long as the
    /// last one took (`rep_time`), it ends within the run's time.
    fn another_rep(&self, rep: usize, started: Instant, rep_time: Duration) -> bool {
        rep < self.min_reps
            || (!self.params.smoke && started.elapsed() + rep_time <= self.seconds(1.0))
    }

    fn seed(&self, parts: &[u64]) -> u64 {
        stream_seed(self.params.seed, parts)
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.report.metrics.insert(name.to_string(), value);
    }

    fn problem(&mut self, message: String) {
        self.report.failed += 1;
        self.report.problems.push(message);
    }

    /// Count, check and keep a finished run's requests.
    fn absorb(&mut self, run: &Run, checked: &mut Run) {
        self.report.attempted += run.samples.len() as u64;
        self.report.failed += run.failed();
        for (key, forest) in &run.forests {
            checked
                .forests
                .entry(*key)
                .or_insert_with(|| Arc::clone(forest));
        }
    }

    fn replay(
        &mut self,
        run: &Run,
        stack: impl Fn(MatrixRequest) -> Arc<dyn MatrixService>,
        wire: &dyn MatrixService,
        keyed: bool,
    ) {
        let replayer = Replayer {
            epoch: self.epoch,
            key: &self.key,
            keyed,
        };
        for traced in &run.traced {
            let owner = stack(traced.request);
            replayer.replay(
                traced,
                owner.as_ref(),
                wire,
                &mut self.layers,
                &mut self.report.spans,
            );
            // The lookup, and for a miss the wire re-request, each hit the cache.
            self.replay_lookups += if traced.hit { 1 } else { 2 };
        }
    }

    /// Run `once` `self.setups` times, keep the last result, and record the
    /// median set-up time.
    fn set_up<T>(&mut self, mut once: impl FnMut(&mut Self) -> T, teardown: impl Fn(T)) -> T {
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..self.setups {
            if let Some(old) = kept.take() {
                teardown(old);
            }
            let start = Instant::now();
            kept = Some(once(self));
            times.push(start.elapsed().as_secs_f64());
        }
        self.metric("setup_s", median(&times));
        kept.expect("at least one set-up")
    }

    /// Boot a server and warm the plan over the wire with a `Warm` frame.
    /// Returns the server and how long the warm frame took, in ms.
    fn warm_server(&mut self) -> (Shard, f64) {
        let shard = boot_any(None);
        let conn = connect(shard.addr(), None);
        let start = Instant::now();
        match conn.warm(&self.plan) {
            Ok(report) if report.is_complete() => {}
            Ok(report) => self.problem(format!("warm plan incomplete: {:?}", report.failures)),
            Err(error) => self.problem(format!("warm plan failed: {error}")),
        }
        (shard, start.elapsed().as_secs_f64() * 1e3)
    }

    fn mix(&self) -> RequestMix {
        RequestMix::new(
            &self.levels,
            *self.plan.deltas.last().expect("plan deltas"),
            1.0,
        )
    }

    /// Share of each round a traced run spends in the open loop; the rest
    /// measures closed-loop capacity.  An untraced run is all open loop.
    fn open_share(&self) -> f64 {
        if self.params.trace {
            0.6
        } else {
            1.0
        }
    }

    /// Open-loop hits against a warmed server; a traced run interleaves
    /// closed-loop capacity repetitions.
    fn warm_hits(&mut self) {
        let (shard, warm_ms) = self.set_up(Self::warm_server, |(shard, _)| shard.server.shutdown());
        let conns = [connect(shard.addr(), None), connect(shard.addr(), None)];
        let services: Vec<&dyn MatrixService> = conns.iter().map(|c| c as _).collect();
        let mix = self.mix();
        let mut reps = Reps::default();
        let mut checked = Run::default();
        self.closed_rep(None, &services, &mix, WARM_UP, &mut checked);
        let rounds = if self.params.smoke { 2 } else { 8 };
        for round in 0..rounds {
            // 2000 rps keeps each connection busy about 15% of the time, so
            // a host stall queues few requests behind it.
            let len = self.seconds(self.open_share()) / rounds as u32;
            let open = self.open_rep(round, &services, &mix, 2000.0, len);
            reps.latencies(&open.samples, self.traced(round), Some(WINDOW));
            self.absorb(&open, &mut checked);
            let mut runs = vec![open];
            if self.params.trace {
                let len = self.seconds(1.0 - self.open_share()) / rounds as u32;
                let (rate, closed) =
                    self.closed_rep(Some(round), &services, &mix, len, &mut checked);
                reps.rates.push(rate);
                runs.push(closed);
            }
            for run in &runs {
                let service = Arc::clone(&shard.service);
                self.replay(run, |_| Arc::clone(&service), &conns[0], false);
            }
        }

        self.finish_reps(reps);
        self.check(&checked);
        self.counters(shard.counters(), &ClusterStats::default());
        if self.params.trace {
            let plan = self.plan.requests();
            self.generator_layers(&plan, warm_ms);
            self.rewarm_replay(&shard);
        }
        drop(conns);
        shard.server.shutdown();
    }

    /// One open-loop repetition of `len` at `rate_hz` in total: one driver
    /// thread per connection, each an independent Poisson stream.
    fn open_rep(
        &self,
        rep: usize,
        conns: &[&dyn MatrixService],
        mix: &RequestMix,
        rate_hz: f64,
        len: Duration,
    ) -> Run {
        let driver = self.driver(self.trace_every(rep, true), true);
        let start = driver.now() + 1_000_000;
        let rate = rate_hz / conns.len() as f64;
        self.threads(conns, |i, conn| {
            let seed = self.seed(&[rep as u64, i as u64]);
            driver.open_loop(conn, mix, rate, seed, start, Some(len), None)
        })
    }

    /// One closed-loop capacity repetition of `len`: one driver thread per
    /// connection, keys from `mix`.  `rep` is `None` for the discarded
    /// warm-up.  Returns completions per second and the run.
    fn closed_rep(
        &mut self,
        rep: Option<usize>,
        conns: &[&dyn MatrixService],
        mix: &RequestMix,
        len: Duration,
        checked: &mut Run,
    ) -> (f64, Run) {
        let trace_every = rep.map_or(0, |rep| self.trace_every(rep, true));
        let driver = self.driver(trace_every, true);
        let started = Instant::now();
        let deadline = started + len;
        let stream = rep.map_or(u64::MAX, |rep| rep as u64);
        let run = self.threads(conns, |i, conn| {
            let seed = self.seed(&[1 << 32, stream, i as u64]);
            driver.closed_loop(conn, mix_until(mix, seed, deadline))
        });
        let throughput = run.samples.len() as f64 / started.elapsed().as_secs_f64();
        self.absorb(&run, checked);
        (throughput, run)
    }

    /// Run `drive` on one scoped thread per connection and merge the runs.
    fn threads(
        &self,
        conns: &[&dyn MatrixService],
        drive: impl Fn(usize, &dyn MatrixService) -> Run + Sync,
    ) -> Run {
        let mut run = Run::default();
        std::thread::scope(|scope| {
            let drive = &drive;
            let handles: Vec<_> = conns
                .iter()
                .enumerate()
                .map(|(i, &conn)| scope.spawn(move || drive(i, conn)))
                .collect();
            for handle in handles {
                run.merge(handle.join().expect("driver thread"));
            }
        });
        run
    }

    /// Cold misses over the wire, each repetition on a fresh server.
    fn cold_sweep(&mut self) {
        // Booting takes milliseconds, so time many extra boots for a steady
        // median.
        let mut boots: Vec<f64> = (0..self.setups * 5)
            .map(|_| {
                let start = Instant::now();
                let shard = boot_any(None);
                let elapsed = start.elapsed().as_secs_f64();
                shard.server.shutdown();
                elapsed
            })
            .collect();
        let mut reps = Reps::default();
        // Each level's median is taken over all the run's solves of that
        // level, so a burst of host steal must hit half of them to move it.
        let mut pooled = [Vec::new(), Vec::new()];
        let mut checked = Run::default();
        let mut counters = Counters::default();
        let mut first: Option<(Vec<MatrixRequest>, Run)> = None;
        let mut last: Option<Shard> = None;
        let started = Instant::now();
        let mut rep_time = Duration::ZERO;
        let mut rep = 0;
        while self.another_rep(rep, started, rep_time) {
            let rep_start = Instant::now();
            let sequence = self.sweep(rep);
            let boot_start = Instant::now();
            let shard = boot_any(None);
            boots.push(boot_start.elapsed().as_secs_f64());
            if let Some(old) = last.take() {
                counters.add(&old.counters());
                old.server.shutdown();
            }
            let conn = connect(shard.addr(), None);
            let driver = self.driver(self.trace_every(rep, false), false);
            let mut keys = sequence.clone().into_iter();
            let run = driver.closed_loop(&conn, || keys.next());
            pooled[usize::from(self.traced(rep))].extend_from_slice(&run.samples);
            if !self.traced(rep) {
                reps.rates.push(run.rate_per_s());
            }
            self.absorb(&run, &mut checked);
            let service = Arc::clone(&shard.service);
            self.replay(&run, |_| Arc::clone(&service), &conn, false);
            if first.is_none() {
                first = Some((sequence, run));
            }
            last = Some(shard);
            rep += 1;
            rep_time = rep_start.elapsed();
        }
        self.metric("setup_s", median(&boots));
        let [untraced, traced] = pooled;
        reps.latencies(&untraced, false, None);
        reps.latencies(&traced, true, None);
        self.finish_reps(reps);
        self.check(&checked);

        // The wire must deliver exactly what a fresh generator computes for
        // the same solve sequence.
        let (sequence, run) = first.expect("at least one repetition");
        let (shadow, _) = shadow_generate(&sequence, false);
        for ((request, wire), local) in sequence.iter().zip(&run.replies).zip(&shadow) {
            if **wire != *local {
                self.problem(format!(
                    "cold forest {:?} differs from the shadow generator's",
                    key_of(*request)
                ));
            }
        }
        let last = last.expect("a last server");
        counters.add(&last.counters());
        self.counters(counters, &ClusterStats::default());
        if self.params.trace {
            let wire_ms: f64 = run.samples.iter().map(Sample::latency_ms).sum();
            self.generator_layers(&sequence, wire_ms);
            self.rewarm_replay(&last);
        }
        last.server.shutdown();
    }

    /// One repetition's solve sequence: level 1 δ 0..=6, then level 2 δ 0
    /// and three seeded δ (level 1 stresses fan-out and formulation, level 2
    /// the interior-point chains, warm-started after δ 0).  The seeded δ
    /// come from one permutation of 1..=`MAX_DELTA` per run, three per
    /// repetition, so a run's draws spread over the range without repeats:
    /// a level-2 solve's cost depends on its δ.
    fn sweep(&self, rep: usize) -> Vec<MatrixRequest> {
        let mut sequence: Vec<MatrixRequest> = (0..=6).map(|delta| request(1, delta)).collect();
        if self.params.smoke {
            sequence.truncate(3);
            return sequence;
        }
        let mut deltas: Vec<usize> = (1..=MAX_DELTA).collect();
        deltas.shuffle(&mut StdRng::seed_from_u64(self.seed(&[u64::MAX])));
        let draws = deltas.chunks_exact(3).cycle().nth(rep).expect("δ draws");
        sequence.push(request(2, 0));
        sequence.extend(draws.iter().map(|&delta| request(2, delta)));
        sequence
    }

    /// Open-loop hits on one connection while the other solves misses.
    fn hits_beside_misses(&mut self) {
        let (shard, warm_ms) = self.set_up(Self::warm_server, |(shard, _)| shard.server.shutdown());
        let hit_conn = connect(shard.addr(), None);
        let miss_conn = connect(shard.addr(), None);
        let mix = self.mix();
        let miss_level = *self.levels.last().expect("levels");
        let per_rep = if self.params.smoke { 1 } else { 3 };
        let first_miss = self.plan.deltas.len();
        let mut pool: Vec<usize> = (first_miss..=MAX_DELTA).collect();
        pool.shuffle(&mut StdRng::seed_from_u64(self.seed(&[u64::MAX])));
        let slices: Vec<&[usize]> = pool.chunks_exact(per_rep).collect();

        let mut reps = Reps::default();
        let mut checked = Run::default();
        let started = Instant::now();
        let mut rep_time = Duration::ZERO;
        let mut rep = 0;
        while rep < slices.len() && self.another_rep(rep, started, rep_time) {
            let rep_start = Instant::now();
            let hit_driver = self.driver(self.trace_every(rep, true), true);
            let miss_driver = self.driver(self.trace_every(rep, false), false);
            let stop = AtomicBool::new(false);
            let start = hit_driver.now() + 1_000_000;
            let hit_seed = self.seed(&[rep as u64]);
            let (hits, misses) = std::thread::scope(|scope| {
                let hits = scope.spawn(|| {
                    // 1000 rps keeps the hit connection busy about a fifth
                    // of the time: what queues is mostly behind the solves.
                    hit_driver.open_loop(
                        &hit_conn,
                        &mix,
                        1000.0,
                        hit_seed,
                        start,
                        None,
                        Some(&stop),
                    )
                });
                let mut keys = slices[rep].iter().map(|&delta| request(miss_level, delta));
                let misses = miss_driver.closed_loop(&miss_conn, || keys.next());
                stop.store(true, Ordering::Release);
                (hits.join().expect("hit driver"), misses)
            });
            reps.latencies(&hits.samples, self.traced(rep), Some(WINDOW));
            if !self.traced(rep) {
                reps.rates.push(misses.rate_per_s());
            }
            self.absorb(&hits, &mut checked);
            self.absorb(&misses, &mut checked);
            let service = Arc::clone(&shard.service);
            self.replay(&hits, |_| Arc::clone(&service), &hit_conn, false);
            self.replay(&misses, |_| Arc::clone(&service), &miss_conn, false);
            rep += 1;
            rep_time = rep_start.elapsed();
        }
        self.finish_reps(reps);
        self.check(&checked);
        self.counters(shard.counters(), &ClusterStats::default());
        if self.params.trace {
            let plan = self.plan.requests();
            self.generator_layers(&plan, warm_ms);
            self.rewarm_replay(&shard);
        }
        drop((hit_conn, miss_conn));
        shard.server.shutdown();
    }

    /// Boot a keyed two-shard mesh, route the warm plan through one router
    /// and wait until every shard holds every key.
    fn boot_cluster(&mut self) -> (Vec<Shard>, ShardRouter, f64) {
        let shards: Vec<Shard> = stack::CLUSTER_PORTS
            .iter()
            .map(|&port| {
                boot(SocketAddr::from(([127, 0, 0, 1], port)), Some(&self.key)).unwrap_or_else(
                    |e| {
                        eprintln!("benchmark: port {port}: {e}; the key split will differ");
                        boot_any(Some(&self.key))
                    },
                )
            })
            .collect();
        mesh(&shards);
        let router = ShardRouter::connect(endpoints(&shards), stack::router(&self.key))
            .expect("router connects to the cluster");
        let start = Instant::now();
        let report = warm(&router, &self.plan);
        let routed_ms = start.elapsed().as_secs_f64() * 1e3;
        if !report.is_complete() {
            self.problem(format!(
                "routed warm plan incomplete: {:?}",
                report.failures
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let plan = self.plan.requests();
        while !shards.iter().all(|s| plan.iter().all(|&key| s.holds(key))) {
            if Instant::now() > deadline {
                self.problem("replication pushes did not land within 60 s".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (shards, router, routed_ms)
    }

    /// Routed open-loop hits on a keyed, replicating cluster, restarting one
    /// shard cold between repetitions and re-warming it from its peer.
    fn cluster_keyed(&mut self) {
        let (mut shards, router, routed_ms) =
            self.set_up(Self::boot_cluster, |(shards, router, _)| {
                drop(router);
                for shard in shards {
                    shard.server.shutdown();
                }
            });
        // Each key was solved once, on its rendezvous owner, and pushed.
        let plan = self.plan.requests();
        let owners = endpoints(&shards);
        for (index, shard) in shards.iter().enumerate() {
            let owned: u64 = plan
                .iter()
                .filter(|key| rendezvous_rank(&owners, key.privacy_level, key.delta)[0] == index)
                .map(|key| self.entries[key.privacy_level as usize] as u64)
                .sum();
            if shard.solves() != owned {
                self.problem(format!(
                    "shard {index} ran {} subtree solves, its owned keys need {owned}",
                    shard.solves()
                ));
            }
        }

        let routed: &dyn MatrixService = &router;
        let mix = self.mix();
        let mut reps = Reps::default();
        let mut checked = Run::default();
        let mut counters = Counters::default();
        let mut restarted = vec![false; shards.len()];
        let stack_for = |shards: &[Shard], key: MatrixRequest| {
            let owner = rendezvous_rank(&owners, key.privacy_level, key.delta)[0];
            Arc::clone(&shards[owner].service)
        };
        // The closed loop runs two driver threads through the router.
        let services = [routed, routed];
        self.closed_rep(None, &services, &mix, WARM_UP, &mut checked);
        let rounds = if self.params.smoke { 2 } else { 4 };
        for round in 0..rounds {
            if round > 0 {
                let index = round % shards.len();
                if restarted[index] && shards[index].solves() != 0 {
                    let solves = shards[index].solves();
                    self.problem(format!("re-warmed shard {index} ran {solves} LP solves"));
                }
                counters.add(&shards[index].counters());
                self.restart(&mut shards, index);
                restarted[index] = true;
            }
            // One driver thread: the router serializes the requests of all
            // threads to a shard on one connection, so a second thread's
            // level-2 hit would queue in front of a level-1 one.  A keyed
            // level-2 hit spends about a millisecond in the MAC on each
            // side; 100 rps keeps the thread busy about a tenth of the time.
            // At 400 rps the level-1 median was 5.7 ms, queued behind
            // level-2 hits, against 0.75 ms at 200 rps.
            let len = self.seconds(self.open_share()) / rounds as u32;
            let open = self.open_rep(round, &[routed], &mix, 100.0, len);
            reps.latencies(&open.samples, self.traced(round), Some(CLUSTER_WINDOW));
            self.absorb(&open, &mut checked);
            let mut runs = vec![open];
            if self.params.trace {
                let len = self.seconds(1.0 - self.open_share()) / rounds as u32;
                let (rate, closed) =
                    self.closed_rep(Some(round), &services, &mix, len, &mut checked);
                reps.rates.push(rate);
                runs.push(closed);
            }
            let current: &[Shard] = &shards;
            for run in &runs {
                self.replay(run, |key| stack_for(current, key), routed, true);
            }
        }

        self.finish_reps(reps);
        self.check(&checked);
        for (index, shard) in shards.iter().enumerate() {
            if restarted[index] && shard.solves() != 0 {
                self.problem(format!(
                    "re-warmed shard {index} ran {} LP solves",
                    shard.solves()
                ));
            }
            counters.add(&shard.counters());
        }
        self.counters(counters, &router.cluster_stats());
        if self.params.trace {
            self.generator_layers(&plan, routed_ms);
        }
        drop(router);
        for shard in shards {
            shard.server.shutdown();
        }
    }

    /// Shut shard `index` down, bind a cold server on its address, and
    /// re-warm it from its peer by anti-entropy digest pulls.
    fn restart(&mut self, shards: &mut Vec<Shard>, index: usize) {
        let old = shards.remove(index);
        let addr = old.addr();
        old.server.shutdown();
        let peer = shards[0].addr().to_string();
        let shard = boot(addr, Some(&self.key)).expect("rebinding a restarted shard");
        shard
            .replicator
            .as_ref()
            .expect("cluster shard")
            .add_peer(peer.clone());
        let start = Instant::now();
        let rewarm = shard
            .server
            .rewarm_from_peers(&[peer], stack::client(Some(&self.key)));
        self.layers
            .push("warm.rewarm_ms", start.elapsed().as_secs_f64() * 1e3);
        self.rewarm_pulled += rewarm.pulled;
        let plan = self.plan.requests();
        if !rewarm.is_complete() || !plan.iter().all(|&key| shard.holds(key)) {
            self.problem(format!("shard {index} re-warm incomplete: {rewarm:?}"));
        }
        shards.insert(index, shard);
    }

    /// Reduce per-repetition statistics to the end-to-end metrics, plus the
    /// tails, closed-loop rate, generator-lag and round-trip layers and the
    /// tracing overhead.
    fn finish_reps(&mut self, reps: Reps) {
        self.metric("l1_p50_ms", median(&reps.p50[0]));
        self.metric("l2_p50_ms", median(&reps.p50[1]));
        self.metric("latency.p90_ms", median(&reps.p90));
        self.metric("latency.p99_ms", median(&reps.p99));
        if !reps.rates.is_empty() {
            self.metric("closed_loop.rate_per_s", median(&reps.rates));
        }
        let lag: Vec<f64> = reps.samples.iter().map(Sample::lag_us).collect();
        let rtt: Vec<f64> = reps.samples.iter().map(Sample::rtt_us).collect();
        self.metric("gen.lag_p50_us", percentile(&lag, 50.0));
        self.metric("gen.lag_p99_us", percentile(&lag, 99.0));
        self.metric("transport.rtt_p50_us", percentile(&rtt, 50.0));
        self.metric("transport.rtt_p99_us", percentile(&rtt, 99.0));
        if !reps.traced_p50.is_empty() {
            let traced = median(&reps.traced_p50);
            let untraced = median(&reps.p50[0]);
            self.metric("trace.p50_traced_ms", traced);
            self.metric("trace.p50_untraced_ms", untraced);
            self.metric("trace.overhead_ms", traced - untraced);
        }
    }

    fn check(&mut self, checked: &Run) {
        for problem in self.checker.check_all(&checked.forests) {
            self.problem(problem);
        }
        self.report.attempted += checked.forests.len() as u64;
    }

    /// Shadow generators over the workload's solve sequence, and the wire's
    /// overhead over them (`wire_ms` is what the same sequence took through
    /// the server).
    fn generator_layers(&mut self, sequence: &[MatrixRequest], wire_ms: f64) {
        let shadow_ms = generator_layers(sequence, &mut self.layers);
        self.metric(
            "miss.overhead_ms",
            (wire_ms - shadow_ms) / sequence.len() as f64,
        );
    }

    /// Replay an anti-entropy re-warm of a cold server from `peer`, which
    /// holds this workload's resident forests.
    fn rewarm_replay(&mut self, peer: &Shard) {
        let fresh = boot_any(None);
        let start = Instant::now();
        let report = fresh
            .server
            .rewarm_from_peers(&[peer.addr().to_string()], stack::client(None));
        self.layers
            .push("warm.rewarm_ms", start.elapsed().as_secs_f64() * 1e3);
        self.rewarm_pulled += report.pulled;
        if !report.is_complete() {
            self.problem(format!("re-warm replay incomplete: {report:?}"));
        }
        fresh.server.shutdown();
    }

    fn counters(&mut self, mut servers: Counters, routers: &ClusterStats) {
        servers.cache.hits = servers.cache.hits.saturating_sub(self.replay_lookups);
        counter_metrics(&servers, routers, &mut self.report.metrics);
    }

    fn finish(mut self) -> Report {
        self.layers.medians_into(&mut self.report.metrics);
        if self.params.trace {
            self.metric("warm.rewarm_keys_pulled", self.rewarm_pulled as f64);
        }
        pool_speedups(&mut self.report.metrics);
        self.report
    }
}

fn endpoints(shards: &[Shard]) -> Vec<String> {
    shards.iter().map(|s| s.addr().to_string()).collect()
}

/// Make every shard a replication peer of every other.
fn mesh(shards: &[Shard]) {
    let addrs: Vec<SocketAddr> = shards.iter().map(Shard::addr).collect();
    for (index, shard) in shards.iter().enumerate() {
        let replicator = shard.replicator.as_ref().expect("cluster shard");
        for (peer, addr) in addrs.iter().enumerate() {
            if peer != index {
                replicator.add_peer(addr.to_string());
            }
        }
    }
}
