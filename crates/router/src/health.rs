//! Per-shard health: a three-state machine with a circuit breaker.
//!
//! Shards move `Up → Suspect → Down` on consecutive failures and snap
//! back to `Up` on any success. `Down` opens a circuit breaker: requests
//! fail fast (no socket touched) until a capped-exponential backoff
//! expires, at which point the shard goes *half-open* — one probe is let
//! through, and its outcome decides between `Up` and another, longer,
//! breaker window. The machine is pure (every transition takes an
//! explicit `Instant`), so unit tests drive it with synthetic clocks; the
//! TCP backend feeds it from request outcomes and the background
//! `OP_STATS` prober.

use std::time::{Duration, Instant};

use fastppv_server::LatencyWindow;
use parking_lot::Mutex;

/// The observable health of one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Up,
    /// At least one recent failure (or half-open after a breaker window):
    /// still routed to, but one more bad streak opens the breaker.
    Suspect,
    /// The circuit breaker is open; requests fail fast until the backoff
    /// window expires.
    Down,
}

/// Thresholds and backoff shape of [`ShardHealth`].
#[derive(Clone, Copy, Debug)]
pub struct HealthOptions {
    /// Consecutive failures that open the circuit breaker (≥ 1).
    pub down_after: u32,
    /// First breaker window; doubles per re-opening.
    pub base_backoff: Duration,
    /// Breaker window ceiling.
    pub max_backoff: Duration,
}

impl Default for HealthOptions {
    fn default() -> Self {
        HealthOptions {
            down_after: 3,
            base_backoff: Duration::from_millis(250),
            max_backoff: Duration::from_secs(10),
        }
    }
}

impl HealthOptions {
    fn validate(&self) {
        assert!(self.down_after >= 1, "down_after must be at least 1");
        assert!(
            !self.base_backoff.is_zero(),
            "base backoff must be positive"
        );
        assert!(
            self.max_backoff >= self.base_backoff,
            "max backoff below base backoff"
        );
    }
}

/// The health state machine of a single shard. Pure: callers inject
/// `Instant`s, nothing here reads a clock.
#[derive(Clone, Debug)]
pub struct ShardHealth {
    options: HealthOptions,
    state: Health,
    consecutive_failures: u32,
    /// While `Down`: when the breaker half-opens.
    breaker_until: Option<Instant>,
    /// Set when a breaker window expired and the shard is probing: the
    /// next failure re-opens immediately instead of needing a new streak.
    half_open: bool,
    /// The *next* breaker window to use (grows while failures continue).
    backoff: Duration,
}

impl ShardHealth {
    /// A fresh shard starts `Up`.
    pub fn new(options: HealthOptions) -> Self {
        options.validate();
        ShardHealth {
            backoff: options.base_backoff,
            options,
            state: Health::Up,
            consecutive_failures: 0,
            breaker_until: None,
            half_open: false,
        }
    }

    /// Current state (without advancing the breaker clock).
    pub fn health(&self) -> Health {
        self.state
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether a request may be sent now. `Down` with an open breaker
    /// fails fast; an expired breaker half-opens the shard (→ `Suspect`)
    /// and admits the probe.
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            Health::Up | Health::Suspect => true,
            Health::Down => {
                let until = self.breaker_until.expect("down shard has a breaker");
                if now < until {
                    return false;
                }
                // Half-open: let requests through to probe recovery; the
                // first failure re-opens the breaker immediately.
                self.state = Health::Suspect;
                self.half_open = true;
                self.breaker_until = None;
                true
            }
        }
    }

    /// A request (or probe) completed: snap to `Up`, reset the streak and
    /// the backoff ladder.
    pub fn on_success(&mut self) {
        self.state = Health::Up;
        self.consecutive_failures = 0;
        self.breaker_until = None;
        self.half_open = false;
        self.backoff = self.options.base_backoff;
    }

    /// A request (or probe) failed. A `down_after` streak — or any
    /// failure while half-open — opens the breaker until `now + backoff`,
    /// then doubles the backoff (capped).
    pub fn on_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.half_open || self.consecutive_failures >= self.options.down_after {
            self.state = Health::Down;
            self.half_open = false;
            self.breaker_until = Some(now + self.backoff);
            self.backoff = (self.backoff * 2).min(self.options.max_backoff);
        } else {
            self.state = Health::Suspect;
        }
    }
}

struct ShardEntry {
    health: ShardHealth,
    latencies: LatencyWindow,
}

/// Shared health registry for a set of shards: the state machines plus a
/// recent-latency window per shard (the hedge delay is derived from its
/// p99, read on every scatter).
pub struct HealthBoard {
    shards: Vec<Mutex<ShardEntry>>,
}

impl HealthBoard {
    /// A board of `n` shards, all initially `Up`.
    pub fn new(n: usize, options: HealthOptions) -> Self {
        HealthBoard {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(ShardEntry {
                        health: ShardHealth::new(options),
                        latencies: LatencyWindow::default(),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards tracked.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the board tracks no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// See [`ShardHealth::allow`].
    pub fn allow(&self, shard: usize, now: Instant) -> bool {
        self.shards[shard].lock().health.allow(now)
    }

    /// Records a completed sub-request and its latency.
    pub fn on_success(&self, shard: usize, latency: Duration) {
        let mut e = self.shards[shard].lock();
        e.health.on_success();
        e.latencies.record(latency);
    }

    /// Records a completed sub-request whose latency is unknown (its
    /// reply was read late, behind another shard's): the shard is healthy,
    /// and the p99 window is left alone.
    pub fn on_success_unsampled(&self, shard: usize) {
        self.shards[shard].lock().health.on_success();
    }

    /// Records a failed sub-request.
    pub fn on_failure(&self, shard: usize, now: Instant) {
        self.shards[shard].lock().health.on_failure(now);
    }

    /// Current state of one shard.
    pub fn health(&self, shard: usize) -> Health {
        self.shards[shard].lock().health.health()
    }

    /// Nearest-rank p99 over the shard's recent completed sub-requests
    /// (`None` until any sample exists).
    pub fn p99(&self, shard: usize) -> Option<Duration> {
        self.shards[shard].lock().latencies.p99()
    }

    /// Shards currently not `Down` (the breaker clock is not advanced).
    pub fn live_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| self.health(s) != Health::Down)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> HealthOptions {
        HealthOptions {
            down_after: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
        }
    }

    #[test]
    fn failures_walk_up_to_down_and_breaker_gates_requests() {
        let mut h = ShardHealth::new(opts());
        let t0 = Instant::now();
        assert_eq!(h.health(), Health::Up);
        h.on_failure(t0);
        assert_eq!(h.health(), Health::Suspect);
        h.on_failure(t0);
        assert_eq!(h.health(), Health::Suspect);
        h.on_failure(t0);
        // Third consecutive failure (down_after) opens the breaker.
        assert_eq!(h.health(), Health::Down);
        assert!(!h.allow(t0), "breaker must fail fast while open");
        assert!(!h.allow(t0 + Duration::from_millis(99)));
        // Breaker expires: half-open admits a probe.
        assert!(h.allow(t0 + Duration::from_millis(100)));
        assert_eq!(h.health(), Health::Suspect);
        // Probe succeeds: fully recovered, backoff ladder reset.
        h.on_success();
        assert_eq!(h.health(), Health::Up);
        assert_eq!(h.consecutive_failures(), 0);
    }

    #[test]
    fn backoff_doubles_per_reopening_and_caps() {
        let mut h = ShardHealth::new(opts());
        let mut t = Instant::now();
        // Open the breaker (streak of 3 from Up via down_after).
        h.on_failure(t);
        h.on_failure(t);
        h.on_failure(t); // Down, window 100ms, next 200ms
        for expect_ms in [200u64, 400, 400, 400] {
            // Wait out the current window, half-open, fail the probe.
            t += Duration::from_secs(3600);
            assert!(h.allow(t));
            h.on_failure(t);
            assert_eq!(h.health(), Health::Down);
            // The new window length is the previous backoff (doubled,
            // capped at 400ms).
            assert!(!h.allow(t + Duration::from_millis(expect_ms - 1)));
            assert!(h.allow(t + Duration::from_millis(expect_ms)));
            // allow() half-opened the shard; re-open for the next round is
            // driven by the loop's on_failure.
        }
        // Recovery resets the ladder to the base window.
        h.on_success();
        h.on_failure(t);
        h.on_failure(t);
        h.on_failure(t); // Down again
        assert!(!h.allow(t + Duration::from_millis(99)));
        assert!(h.allow(t + Duration::from_millis(100)));
    }

    #[test]
    fn board_tracks_latencies_and_live_set() {
        let board = HealthBoard::new(3, opts());
        assert_eq!(board.live_shards(), vec![0, 1, 2]);
        assert_eq!(board.p99(1), None);
        for ms in 1..=100u64 {
            board.on_success(1, Duration::from_millis(ms));
        }
        // Nearest-rank p99 over 1..=100 ms is the 99th sample.
        assert_eq!(board.p99(1), Some(Duration::from_millis(99)));
        let now = Instant::now();
        for _ in 0..3 {
            board.on_failure(2, now);
        }
        assert_eq!(board.health(2), Health::Down);
        assert_eq!(board.live_shards(), vec![0, 1]);
        assert!(!board.allow(2, now));
        board.on_success(2, Duration::from_millis(1));
        assert_eq!(board.live_shards(), vec![0, 1, 2]);
    }
}
