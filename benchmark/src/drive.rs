//! The benchmark's own load drivers and statistics.
//!
//! Open loop: requests are due on a seeded Poisson schedule and each one is
//! timed from its due time, so a stall also delays (and is charged to) the
//! requests queued behind it.  Closed loop: the next request is due when the
//! previous reply lands.  Every sample is kept raw, so percentiles are exact.
//! A failed request counts as missing every latency limit: it enters the
//! percentiles as +∞.

use corgi_datagen::RequestMix;
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse};
use corgi_framework::MatrixService;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Key of a served forest: `(privacy_level, δ)`.
pub type Key = (u8, usize);

pub fn key_of(request: MatrixRequest) -> Key {
    (request.privacy_level, request.delta)
}

pub fn request(level: u8, delta: usize) -> MatrixRequest {
    MatrixRequest {
        privacy_level: level,
        delta,
    }
}

/// Timestamps of one request, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Privacy level of the requested forest.
    pub level: u8,
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub ok: bool,
}

impl Sample {
    /// Due → reply, or +∞ for a failed request.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    /// Due → send: how late the generator ran.
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.due) as f64 / 1e3
    }

    /// Send → reply.
    pub fn rtt_us(&self) -> f64 {
        if self.ok {
            (self.done - self.sent) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// A request kept for the traced replays: its key, timing and reply.
pub struct Traced {
    pub id: u64,
    pub request: MatrixRequest,
    pub sample: Sample,
    pub forest: Arc<PrivacyForestResponse>,
    /// Whether the key was resident when the request was sent.
    pub hit: bool,
}

/// Everything one driver thread observed.
#[derive(Default)]
pub struct Run {
    pub samples: Vec<Sample>,
    /// The first reply per distinct key, checked once after timing.
    pub forests: BTreeMap<Key, Arc<PrivacyForestResponse>>,
    /// Replies, in request order, when the caller keeps them all.
    pub replies: Vec<Arc<PrivacyForestResponse>>,
    pub traced: Vec<Traced>,
    /// Replies whose echoed key or entry count was wrong.
    pub mismatched: u64,
}

impl Run {
    pub fn merge(&mut self, other: Run) {
        self.samples.extend(other.samples);
        for (key, forest) in other.forests {
            self.forests.entry(key).or_insert(forest);
        }
        self.replies.extend(other.replies);
        self.traced.extend(other.traced);
        self.mismatched += other.mismatched;
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64 + self.mismatched
    }

    /// Completions per second from the first due time to the last reply.
    pub fn rate_per_s(&self) -> f64 {
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return 0.0;
        };
        self.samples.len() as f64 / ((last.done - first.due) as f64 / 1e9)
    }
}

/// Shared settings of every driver thread of one run.
pub struct Driver<'a> {
    pub epoch: Instant,
    /// Entries expected per forest, indexed by privacy level.
    pub entries: &'a [usize],
    /// Keep every `trace_every`-th request for replay (0: none).
    pub trace_every: u64,
    /// Whether requests hit resident keys (the traced replays differ).
    pub hits: bool,
    /// Keep every reply in order (the cold sweep compares them bit for bit).
    pub keep_replies: bool,
}

/// Trace ids, unique across the threads of a run.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl Driver<'_> {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn call(&self, conn: &dyn MatrixService, request: MatrixRequest, due: u64, run: &mut Run) {
        let sent = self.now();
        let result = conn.privacy_forest(request);
        let done = self.now();
        let ok = result.is_ok();
        let sample = Sample {
            level: request.privacy_level,
            due,
            sent,
            done,
            ok,
        };
        let index = run.samples.len() as u64;
        run.samples.push(sample);
        let Ok(forest) = result else {
            return;
        };
        let expected = self.entries.get(request.privacy_level as usize).copied();
        if forest.request != request || Some(forest.entries.len()) != expected {
            run.mismatched += 1;
        }
        run.forests
            .entry(key_of(request))
            .or_insert_with(|| Arc::clone(&forest));
        if self.trace_every > 0 && index.is_multiple_of(self.trace_every) {
            run.traced.push(Traced {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                request,
                sample,
                forest: Arc::clone(&forest),
                hit: self.hits,
            });
        }
        if self.keep_replies {
            run.replies.push(forest);
        }
    }

    /// Open loop: Poisson arrivals at `rate_hz` from `start` (ns since the
    /// epoch), keys drawn from `mix`, until `horizon` has passed or `stop`
    /// is raised.
    #[allow(clippy::too_many_arguments)]
    pub fn open_loop(
        &self,
        conn: &dyn MatrixService,
        mix: &RequestMix,
        rate_hz: f64,
        seed: u64,
        start: u64,
        horizon: Option<Duration>,
        stop: Option<&AtomicBool>,
    ) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        let end = horizon.map(|h| start + h.as_nanos() as u64);
        let mut run = Run::default();
        let mut due = start as f64;
        loop {
            let u: f64 = rng.gen();
            due += -(1.0 - u).ln() / rate_hz * 1e9;
            let due_ns = due as u64;
            if end.is_some_and(|end| due_ns >= end)
                || stop.is_some_and(|stop| stop.load(Ordering::Acquire))
            {
                return run;
            }
            let (level, delta) = mix.sample(&mut rng);
            let now = self.now();
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            self.call(conn, request(level, delta), due_ns, &mut run);
        }
    }

    /// Closed loop: each request is due when the previous reply lands; runs
    /// until `next` yields no key.
    pub fn closed_loop(
        &self,
        conn: &dyn MatrixService,
        mut next: impl FnMut() -> Option<MatrixRequest>,
    ) -> Run {
        let mut run = Run::default();
        let mut due = self.now();
        while let Some(request) = next() {
            self.call(conn, request, due, &mut run);
            due = run.samples.last().map_or(due, |s| s.done);
        }
        run
    }
}

/// Keys drawn from `mix` until `deadline`.
pub fn mix_until(
    mix: &RequestMix,
    seed: u64,
    deadline: Instant,
) -> impl FnMut() -> Option<MatrixRequest> + '_ {
    let mut rng = StdRng::seed_from_u64(seed);
    move || {
        (Instant::now() < deadline).then(|| {
            let (level, delta) = mix.sample(&mut rng);
            request(level, delta)
        })
    }
}

/// A seed for one stream of one run, mixed so nearby inputs diverge.
pub fn stream_seed(seed: u64, parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(seed ^ 0x9E37_79B9_7F4A_7C15, |acc, &part| {
            (acc ^ part)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(31)
        })
}

/// Nearest-rank percentile of unsorted values (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median, averaging the middle pair of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_failures_are_slowest() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        let mut with_failure = values.clone();
        with_failure[0] = f64::INFINITY;
        assert_eq!(percentile(&with_failure, 100.0), f64::INFINITY);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }
}
