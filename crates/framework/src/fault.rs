//! Deterministic fault injection for the transport and cluster layers.
//!
//! Distributed-systems failures are ordering bugs: a frame lost *between* a
//! request and its reply, a MAC corrupted on exactly the third push, a peer
//! partitioned for the window between two probes.  Reproducing them with real
//! packet loss is flaky; this module instead threads an optional
//! [`FaultPlan`] through the send paths of [`crate::transport`] and the
//! connect paths of the client connections and peer links, so a test (see
//! `tests/chaos.rs`) can
//! script *exact* failure sequences — "drop the 2nd server send, corrupt the
//! MAC of the 5th" — and assert the recovery contract deterministically.
//!
//! Two construction modes:
//!
//! * [`FaultPlan::scripted`] — an explicit `(site, step, action)` list; each
//!   injection site keeps its own step counter, so "the nth send" is exact
//!   and independent of scheduling on other sites;
//! * [`FaultPlan::seeded`] — a seeded xorshift stream decides per step
//!   whether (and which) fault fires, for soak-style runs (`loadgen
//!   --chaos`); the same seed replays the same fault sequence.
//!
//! Peer partitions are level-triggered rather than step-indexed: a partition
//! set via [`FaultPlan::partition`] makes every connect attempt to that
//! endpoint fail fast until [`FaultPlan::heal`] is called, which is how the
//! chaos tests simulate a dead-then-recovered shard without real process
//! boundaries.
//!
//! The hooks are `Option<Arc<FaultPlan>>` fields on
//! [`TransportConfig`](crate::transport::TransportConfig),
//! [`ClientConfig`](crate::ClientConfig) and
//! [`ReplicationConfig`](crate::ReplicationConfig), defaulting to `None`:
//! production builds pay one pointer check per send.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What a firing fault does to the operation it intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the outbound frame (the peer never sees it).
    DropFrame,
    /// Sleep for the given duration before the operation proceeds.  Only
    /// honoured at blocking injection sites ([`FaultSite::ClientSend`],
    /// [`FaultSite::PeerConnect`]); on the reactor-side
    /// [`FaultSite::ServerSend`] it degrades to [`FaultAction::DropFrame`]
    /// (the reactor thread must never sleep).
    Delay(Duration),
    /// Close the connection out from under the operation.
    CloseConnection,
    /// Let the frame through with its MAC trailer (or, unkeyed, its last
    /// payload byte) flipped, so the receiver sees a tampered frame.
    CorruptMac,
}

/// Where in the stack a fault fires.  Each site keeps an independent step
/// counter, advanced once per intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A server reactor queueing an outbound frame on a connection.
    ServerSend,
    /// A blocking client ([`TcpTransport`](crate::TcpTransport)) about to
    /// send a request frame.
    ClientSend,
    /// A replication link dialing a peer.
    PeerConnect,
}

impl FaultSite {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            FaultSite::ServerSend => 0,
            FaultSite::ClientSend => 1,
            FaultSite::PeerConnect => 2,
        }
    }
}

/// Seeded pseudo-random fault source (xorshift64*; no `rand` dependency so
/// the framework stays self-contained).
#[derive(Debug, Clone)]
struct SeededFaults {
    seed: u64,
    /// Probability of a fault per step, in parts per million.
    rate_ppm: u64,
}

impl SeededFaults {
    fn action_for(&self, site: FaultSite, step: u64) -> Option<FaultAction> {
        // Mix seed, site and step through xorshift64* so per-site streams are
        // independent but fully determined by the seed.
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(step)
            .wrapping_add((site.index() as u64) << 32)
            | 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        if r % 1_000_000 >= self.rate_ppm {
            return None;
        }
        Some(match (r >> 32) % 4 {
            0 => FaultAction::DropFrame,
            1 => FaultAction::Delay(Duration::from_millis(1 + (r >> 40) % 5)),
            2 => FaultAction::CloseConnection,
            _ => FaultAction::CorruptMac,
        })
    }
}

/// A deterministic schedule of injected faults; see the module docs.
///
/// Cheap to share: the send-path check is one atomic increment plus (for
/// scripted plans) a sorted-slice lookup.
#[derive(Debug)]
pub struct FaultPlan {
    steps: [AtomicU64; FaultSite::COUNT],
    /// Scripted `(site, step, action)` triples, sorted for binary search.
    scripted: Vec<(FaultSite, u64, FaultAction)>,
    seeded: Option<SeededFaults>,
    partitioned: Mutex<HashSet<String>>,
}

impl FaultPlan {
    fn new(scripted: Vec<(FaultSite, u64, FaultAction)>, seeded: Option<SeededFaults>) -> Self {
        let mut scripted = scripted;
        scripted.sort_by_key(|(site, step, _)| (site.index(), *step));
        Self {
            steps: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            scripted,
            seeded,
            partitioned: Mutex::new(HashSet::new()),
        }
    }

    /// A plan firing exactly the given `(site, step, action)` triples; step
    /// numbers are 0-based per site.
    pub fn scripted(steps: impl IntoIterator<Item = (FaultSite, u64, FaultAction)>) -> Self {
        Self::new(steps.into_iter().collect(), None)
    }

    /// A plan that never fires on its own (steps still advance); useful as a
    /// pure partition switch.
    pub fn empty() -> Self {
        Self::new(Vec::new(), None)
    }

    /// A seeded pseudo-random plan: each intercepted operation faults with
    /// probability `rate` (clamped to `[0, 1]`), the action chosen by the
    /// same deterministic stream.  Equal seeds replay equal sequences.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        let rate_ppm = (rate.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        Self::new(Vec::new(), Some(SeededFaults { seed, rate_ppm }))
    }

    /// Advance `site`'s step counter and return the fault (if any) scheduled
    /// for the step just consumed.
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        let step = self.steps[site.index()].fetch_add(1, Ordering::Relaxed);
        if let Ok(found) = self
            .scripted
            .binary_search_by_key(&(site.index(), step), |(s, n, _)| (s.index(), *n))
        {
            return Some(self.scripted[found].2);
        }
        self.seeded
            .as_ref()
            .and_then(|seeded| seeded.action_for(site, step))
    }

    /// Steps consumed so far at `site` (how many operations were
    /// intercepted, faulted or not).
    pub fn steps_taken(&self, site: FaultSite) -> u64 {
        self.steps[site.index()].load(Ordering::Relaxed)
    }

    /// Partition `endpoint`: every subsequent connect attempt to it fails
    /// fast until [`FaultPlan::heal`] is called.
    pub fn partition(&self, endpoint: &str) {
        self.partitioned
            .lock()
            .expect("fault partition set poisoned")
            .insert(endpoint.to_string());
    }

    /// Lift a partition set by [`FaultPlan::partition`].
    pub fn heal(&self, endpoint: &str) {
        self.partitioned
            .lock()
            .expect("fault partition set poisoned")
            .remove(endpoint);
    }

    /// Whether connects to `endpoint` are currently partitioned.
    pub fn is_partitioned(&self, endpoint: &str) -> bool {
        self.partitioned
            .lock()
            .expect("fault partition set poisoned")
            .contains(endpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_steps_fire_exactly_once_per_site() {
        let plan = FaultPlan::scripted([
            (FaultSite::ServerSend, 1, FaultAction::DropFrame),
            (FaultSite::ClientSend, 0, FaultAction::CorruptMac),
        ]);
        // ServerSend: step 0 clean, step 1 fires, step 2 clean.
        assert_eq!(plan.check(FaultSite::ServerSend), None);
        assert_eq!(
            plan.check(FaultSite::ServerSend),
            Some(FaultAction::DropFrame)
        );
        assert_eq!(plan.check(FaultSite::ServerSend), None);
        // Sites count independently: ClientSend step 0 fires even though
        // ServerSend already consumed three steps.
        assert_eq!(
            plan.check(FaultSite::ClientSend),
            Some(FaultAction::CorruptMac)
        );
        assert_eq!(plan.check(FaultSite::ClientSend), None);
        assert_eq!(plan.steps_taken(FaultSite::ServerSend), 3);
        assert_eq!(plan.steps_taken(FaultSite::ClientSend), 2);
        assert_eq!(plan.steps_taken(FaultSite::PeerConnect), 0);
    }

    #[test]
    fn seeded_streams_replay_and_respect_rate_bounds() {
        let a = FaultPlan::seeded(7, 0.5);
        let b = FaultPlan::seeded(7, 0.5);
        let run: Vec<_> = (0..64).map(|_| a.check(FaultSite::ClientSend)).collect();
        let replay: Vec<_> = (0..64).map(|_| b.check(FaultSite::ClientSend)).collect();
        assert_eq!(run, replay, "same seed replays the same fault sequence");
        let fired = run.iter().filter(|f| f.is_some()).count();
        assert!(fired > 0, "a 50% rate over 64 steps fires at least once");
        assert!(fired < 64, "...and spares at least one step");
        // Rate 0 never fires; rate 1 always fires.
        let never = FaultPlan::seeded(7, 0.0);
        assert!((0..64).all(|_| never.check(FaultSite::ServerSend).is_none()));
        let always = FaultPlan::seeded(7, 1.0);
        assert!((0..64).all(|_| always.check(FaultSite::ServerSend).is_some()));
    }

    #[test]
    fn partitions_are_level_triggered() {
        let plan = FaultPlan::empty();
        assert!(!plan.is_partitioned("127.0.0.1:9000"));
        plan.partition("127.0.0.1:9000");
        assert!(plan.is_partitioned("127.0.0.1:9000"));
        assert!(!plan.is_partitioned("127.0.0.1:9001"));
        plan.heal("127.0.0.1:9000");
        assert!(!plan.is_partitioned("127.0.0.1:9000"));
    }
}
