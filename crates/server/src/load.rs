//! Per-front-end load bookkeeping: the in-flight count, the degraded and
//! shed counters, and one recent-latency window — the state a shard's
//! [`crate::QueryService`] and the router both keep behind their dispatch
//! loop — and the overload policy that turns it into a serving regime.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use fastppv_core::query::StoppingCondition;
use parking_lot::Mutex;

use crate::service::percentile_of_sorted;

/// Overload policy of a [`LoadTracker`] (a service opts in via
/// [`crate::QueryService::with_overload`]).
///
/// The tracker watches two signals: how many requests are inside the
/// front-end right now (queued + executing, the *in-flight* count) and
/// the recent p99 of served latencies. They drive three regimes
/// ([`LoadRegime`]):
///
/// * **Normal** — requests run exactly as asked.
/// * **Degrade** — admitted requests get their stopping condition capped
///   at [`OverloadOptions::degraded_max_iterations`] increments. FastPPV
///   makes this safe: every answer carries its certified error φ
///   (Eq. 6), so a degraded answer is a *looser bound*, never a wrong
///   score — and [`crate::Response::degraded`] says the cap was applied.
/// * **Shed** — past the high-water mark, callers should fail fast with
///   an `Overloaded` error carrying [`OverloadOptions::retry_after`]
///   instead of queueing ([`LoadTracker::admission`]).
#[derive(Clone, Copy, Debug)]
pub struct OverloadOptions {
    /// In-flight requests at which *degrade* begins.
    pub degrade_in_flight: usize,
    /// In-flight high-water mark at which new requests are shed.
    pub shed_in_flight: usize,
    /// Increment cap applied to admitted requests while degrading.
    pub degraded_max_iterations: usize,
    /// Optional latency target: when the recent p99 of served requests
    /// exceeds it, the service degrades even below the in-flight
    /// watermark (the pool is keeping up with arrivals but not with the
    /// deadline).
    pub deadline_p99: Option<Duration>,
    /// Retry hint attached to shed decisions. Must be positive — a zero
    /// hint invites an immediate retry storm.
    pub retry_after: Duration,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            degrade_in_flight: 64,
            shed_in_flight: 256,
            degraded_max_iterations: 1,
            deadline_p99: None,
            retry_after: Duration::from_millis(50),
        }
    }
}

impl OverloadOptions {
    fn validate(&self) {
        assert!(
            self.degrade_in_flight >= 1,
            "degrade watermark must be positive"
        );
        assert!(
            self.shed_in_flight >= self.degrade_in_flight,
            "shed watermark must be at or above the degrade watermark"
        );
        assert!(
            !self.retry_after.is_zero(),
            "retry_after must be positive (a zero hint invites a retry storm)"
        );
    }
}

/// The serving regime the load tracker currently prescribes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadRegime {
    /// Requests run exactly as asked.
    Normal,
    /// Admitted requests get a capped stopping condition (looser φ).
    Degrade,
    /// New requests should be rejected with a retry hint.
    Shed,
}

/// One admission decision (see [`LoadTracker::admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Run the request; `degraded` says the service will cap its
    /// stopping condition.
    Admit {
        /// Whether the degrade cap is in force.
        degraded: bool,
    },
    /// Reject immediately; the client should back off for `retry_after`.
    Shed {
        /// How long the client should wait before retrying.
        retry_after: Duration,
    },
}

/// A point-in-time picture of the load tracker.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    /// Requests inside the front-end right now (queued + executing).
    pub in_flight: usize,
    /// p99 of the recent served-latency window ([`Duration::ZERO`] until
    /// any sample lands).
    pub recent_p99: Duration,
    /// Responses served with the degrade cap applied.
    pub degraded: u64,
    /// Shed decisions recorded via [`LoadTracker::note_shed`].
    pub shed: u64,
}

/// Samples a [`LatencyWindow`] keeps. At 256 the nearest-rank p99 is the
/// third-largest sample, so one outlier cannot move it, yet the regime
/// reacts to the last moment, not the last minute; and a record shifts at
/// most 4 KiB of sorted samples, cheap enough for every request.
const LATENCY_WINDOW: usize = 256;

/// The last `LATENCY_WINDOW` (256) latencies, kept twice: in arrival order
/// (the next eviction is at the front) and ascending, so the p99 is an
/// index read — no allocation and no sort per read.
#[derive(Debug, Default)]
pub struct LatencyWindow {
    arrivals: VecDeque<Duration>,
    sorted: Vec<Duration>,
}

impl LatencyWindow {
    /// Adds one sample, evicting the oldest once the window is full.
    pub fn record(&mut self, latency: Duration) {
        if self.arrivals.len() == LATENCY_WINDOW {
            if let Some(old) = self.arrivals.pop_front() {
                if let Ok(at) = self.sorted.binary_search(&old) {
                    self.sorted.remove(at);
                }
            }
        }
        self.arrivals.push_back(latency);
        let at = self.sorted.partition_point(|&x| x <= latency);
        self.sorted.insert(at, latency);
    }

    /// Nearest-rank p99 of the window (`None` until any sample lands).
    pub fn p99(&self) -> Option<Duration> {
        (!self.sorted.is_empty()).then(|| percentile_of_sorted(&self.sorted, 0.99))
    }
}

/// A front-end's load ledger: in-flight count, degraded and shed
/// counters, one [`LatencyWindow`], and the optional overload policy.
/// Without a policy the regime is always [`LoadRegime::Normal`] and
/// [`LoadTracker::admission`] always admits, but the counts and the p99
/// are still kept, so `OP_STATS` reports live figures either way.
#[derive(Debug, Default)]
pub struct LoadTracker {
    policy: Option<OverloadOptions>,
    in_flight: AtomicUsize,
    degraded: AtomicU64,
    shed: AtomicU64,
    window: Mutex<LatencyWindow>,
}

/// Counts requests as inside the front-end until dropped — on normal
/// return or panic unwind alike ([`LoadTracker::enter`]).
#[must_use = "the requests leave the in-flight count when the guard drops"]
pub struct InFlightGuard<'a>(&'a LoadTracker, usize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(self.1, Ordering::Relaxed);
    }
}

impl LoadTracker {
    /// A tracker enforcing `policy` (`None`: always admit, never degrade).
    pub fn new(policy: Option<OverloadOptions>) -> Self {
        if let Some(p) = &policy {
            p.validate();
        }
        LoadTracker {
            policy,
            ..LoadTracker::default()
        }
    }

    /// Counts `n` requests as in flight until the guard drops.
    pub fn enter(&self, n: usize) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(n, Ordering::Relaxed);
        InFlightGuard(self, n)
    }

    /// Feeds one served request's latency into the window.
    pub fn record(&self, latency: Duration) {
        self.window.lock().record(latency);
    }

    /// Counts one response served with the degrade cap applied.
    pub fn note_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shed decision.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// The regime the policy prescribes at the current load.
    pub fn regime(&self) -> LoadRegime {
        let Some(policy) = &self.policy else {
            return LoadRegime::Normal;
        };
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        if in_flight >= policy.shed_in_flight {
            LoadRegime::Shed
        } else if in_flight >= policy.degrade_in_flight
            || policy
                .deadline_p99
                .is_some_and(|target| self.stats().recent_p99 > target)
        {
            LoadRegime::Degrade
        } else {
            LoadRegime::Normal
        }
    }

    /// One admission decision for a request about to enter.
    pub fn admission(&self) -> Admission {
        match (self.regime(), &self.policy) {
            (LoadRegime::Shed, Some(policy)) => Admission::Shed {
                retry_after: policy.retry_after,
            },
            (regime, _) => Admission::Admit {
                degraded: regime == LoadRegime::Degrade,
            },
        }
    }

    /// Caps `stop` at the policy's increment budget if the regime is
    /// Degrade, counting the response as degraded when the cap changed
    /// it. Returns whether it did.
    pub fn degrade(&self, stop: &mut StoppingCondition) -> bool {
        let Some(policy) = self.policy.filter(|_| self.regime() == LoadRegime::Degrade) else {
            return false;
        };
        let cap = policy.degraded_max_iterations;
        let capped = stop.max_iterations.map_or(cap, |eta| eta.min(cap));
        if stop.max_iterations == Some(capped) {
            return false;
        }
        stop.max_iterations = Some(capped);
        self.note_degraded();
        true
    }

    /// A point-in-time picture of the ledger.
    pub fn stats(&self) -> LoadStats {
        LoadStats {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            recent_p99: self.window.lock().p99().unwrap_or_default(),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted window answers exactly what sorting the last
    /// [`LATENCY_WINDOW`] samples would, after every push — duplicates
    /// and evictions included.
    #[test]
    fn p99_matches_percentile_of_the_window_across_eviction() {
        let mut window = LatencyWindow::default();
        let mut all = Vec::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for push in 0..3 * LATENCY_WINDOW {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // A narrow range forces ties, so eviction must remove one
            // copy of a repeated value, not all of them.
            let sample = Duration::from_micros(state % 97);
            window.record(sample);
            all.push(sample);
            let mut last = all[all.len().saturating_sub(LATENCY_WINDOW)..].to_vec();
            assert_eq!(last.len(), (push + 1).min(LATENCY_WINDOW));
            last.sort_unstable();
            assert_eq!(
                window.p99(),
                Some(percentile_of_sorted(&last, 0.99)),
                "push {push}"
            );
        }
    }

    #[test]
    fn empty_window_has_no_p99() {
        assert_eq!(LatencyWindow::default().p99(), None);
        assert_eq!(LoadTracker::new(None).stats().recent_p99, Duration::ZERO);
    }

    #[test]
    fn in_flight_guard_releases_on_unwind() {
        let tracker = LoadTracker::new(None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tracker.enter(3);
            assert_eq!(tracker.stats().in_flight, 3);
            panic!("request handler failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(
            tracker.stats().in_flight,
            0,
            "unwind must release the count"
        );
    }

    #[test]
    fn without_a_policy_the_tracker_counts_but_always_admits() {
        let tracker = LoadTracker::new(None);
        let _held = tracker.enter(10_000);
        tracker.record(Duration::from_secs(5));
        assert_eq!(tracker.regime(), LoadRegime::Normal);
        assert_eq!(tracker.admission(), Admission::Admit { degraded: false });
        let mut stop = StoppingCondition::iterations(8);
        assert!(!tracker.degrade(&mut stop));
        assert_eq!(stop.max_iterations, Some(8));
        let stats = tracker.stats();
        assert_eq!(stats.in_flight, 10_000);
        assert_eq!(stats.recent_p99, Duration::from_secs(5));
    }
}
