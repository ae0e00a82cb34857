//! Shard backends: how the merge loop reaches shards.
//!
//! [`TcpBackend`] is the production path — per-shard connection pools
//! over the v3 protocol, gated by the [`crate::health`] state machine
//! and wrapped in **hedged sub-requests**: if a shard has not answered
//! within a p99-derived delay, the request is duplicated on a fresh
//! connection and the first response wins. Hedging can never
//! double-count mass: the merge takes exactly one reply per sub-request
//! slot, and each connection validates the echoed request id, so a late
//! loser is simply dropped with its connection.
//!
//! [`LocalBackend`] runs shards in-process (no sockets) with injectable
//! failures — the exactness oracle and fault-matrix tests drive the same
//! merge loop through it.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fastppv_core::PpvStore;
use fastppv_graph::NodeId;
use fastppv_server::net::{
    Client, ClientOptions, ServerHello, SubReply, WireExpand, WirePrime0, WireStats,
};
use fastppv_server::QueryService;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::health::{HealthBoard, HealthOptions};
use crate::merge::SubBackend;

/// Why a sub-request produced no reply.
#[derive(Clone, Debug)]
pub enum BackendError {
    /// The shard's circuit breaker is open, or every attempt (including
    /// the hedge) failed or timed out.
    ShardDown(usize),
    /// The shard violated the protocol (wrong request id, malformed
    /// frame); not retryable.
    Protocol {
        /// Which shard misbehaved.
        shard: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::ShardDown(s) => write!(f, "shard {s} is down"),
            BackendError::Protocol { shard, message } => {
                write!(f, "shard {shard} protocol error: {message}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Knobs of a [`TcpBackend`].
#[derive(Clone, Copy, Debug)]
pub struct TcpBackendOptions {
    /// Socket timeouts for every shard connection.
    pub client: ClientOptions,
    /// Health state machine thresholds and breaker backoff.
    pub health: HealthOptions,
    /// Whether stragglers are hedged at all.
    pub hedge: bool,
    /// Hedge-delay floor: never duplicate a sub-request earlier than
    /// this, even when the shard's p99 is tiny.
    pub hedge_delay_floor: Duration,
    /// Hedge delay as a multiple of the shard's recent p99 sub-request
    /// latency (used once samples exist; the floor still applies).
    pub hedge_p99_factor: f64,
    /// Total wall-clock budget for one sub-request across both attempts.
    pub sub_request_timeout: Duration,
    /// Connections kept pooled per shard (excess completed connections
    /// are dropped).
    pub pool_per_shard: usize,
}

impl Default for TcpBackendOptions {
    fn default() -> Self {
        TcpBackendOptions {
            client: ClientOptions::default(),
            health: HealthOptions::default(),
            hedge: true,
            hedge_delay_floor: Duration::from_millis(20),
            hedge_p99_factor: 3.0,
            sub_request_timeout: Duration::from_secs(10),
            pool_per_shard: 8,
        }
    }
}

struct Inner {
    addrs: Vec<SocketAddr>,
    pools: Vec<Mutex<Vec<Client>>>,
    health: HealthBoard,
    options: TcpBackendOptions,
    hedges: AtomicU64,
}

impl Inner {
    fn take_pooled(&self, shard: usize) -> Option<Client> {
        self.pools.get(shard)?.lock().pop()
    }

    fn return_client(&self, shard: usize, client: Client) {
        let Some(pool) = self.pools.get(shard) else {
            return;
        };
        let mut pool = pool.lock();
        if pool.len() < self.options.pool_per_shard {
            pool.push(client);
        }
    }

    /// The address of `shard`, or a connect-style error for an
    /// out-of-range index (fail closed, never panic on a routing bug).
    fn addr(&self, shard: usize) -> io::Result<SocketAddr> {
        self.addrs.get(shard).copied().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} out of range ({} shards)", self.addrs.len()),
            )
        })
    }

    fn hedge_delay(&self, shard: usize) -> Duration {
        match self.health.p99(shard) {
            Some(p99) => p99
                .mul_f64(self.options.hedge_p99_factor)
                .max(self.options.hedge_delay_floor),
            None => self.options.hedge_delay_floor,
        }
    }
}

type Op<T> = Arc<dyn Fn(&mut Client) -> io::Result<T> + Send + Sync>;

/// One attempt on its own thread: take a pooled (or fresh) connection,
/// run the op, and report through the channel. A connection that
/// *completed* its round trip is back in sync and returns to the pool
/// even if it lost the hedge race; a failed connection is dropped.
fn spawn_attempt<T: Send + 'static>(
    inner: &Arc<Inner>,
    shard: usize,
    reuse_pool: bool,
    op: Op<T>,
    tx: mpsc::Sender<io::Result<T>>,
) {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let client = match if reuse_pool {
            inner.take_pooled(shard)
        } else {
            None
        } {
            Some(c) => Ok(c),
            None => inner
                .addr(shard)
                .and_then(|addr| Client::connect_with(addr, inner.options.client)),
        };
        let mut client = match client {
            Ok(c) => c,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        };
        match op(&mut client) {
            Ok(t) => {
                inner.return_client(shard, client);
                let _ = tx.send(Ok(t));
            }
            Err(e) => {
                let _ = tx.send(Err(e));
            }
        }
    });
}

/// Remote shards over TCP: pooled connections, health gating, hedging.
/// Cheap to clone (shared state) — the background prober and the serving
/// path hold the same backend.
#[derive(Clone)]
pub struct TcpBackend {
    inner: Arc<Inner>,
}

impl TcpBackend {
    /// A backend over one address per shard. No connections are opened
    /// yet; pools fill lazily as sub-requests complete.
    pub fn new(addrs: Vec<SocketAddr>, options: TcpBackendOptions) -> Self {
        assert!(!addrs.is_empty(), "a cluster needs at least one shard");
        assert!(options.hedge_p99_factor >= 1.0, "hedge factor below 1");
        assert!(
            !options.sub_request_timeout.is_zero(),
            "sub-request timeout must be positive"
        );
        let pools = (0..addrs.len()).map(|_| Mutex::new(Vec::new())).collect();
        let health = HealthBoard::new(addrs.len(), options.health);
        TcpBackend {
            inner: Arc::new(Inner {
                addrs,
                pools,
                health,
                options,
                hedges: AtomicU64::new(0),
            }),
        }
    }

    /// The shard health registry (shared with the prober).
    pub fn health(&self) -> &HealthBoard {
        &self.inner.health
    }

    /// Shard addresses, in shard-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.inner.addrs
    }

    /// Hedged sub-requests issued so far.
    pub fn hedges_sent(&self) -> u64 {
        self.inner.hedges.load(Ordering::Relaxed)
    }

    /// First reachable shard's hello — how a stateless router discovers
    /// the cluster's node count, α, δ, and current epoch.
    pub fn discover_hello(&self) -> Result<ServerHello, BackendError> {
        let mut last = 0;
        for shard in 0..self.inner.addrs.len() {
            last = shard;
            match self.single_attempt(
                shard,
                &(Arc::new(|c: &mut Client| Ok(*c.hello())) as Op<ServerHello>),
            ) {
                Ok(h) => return Ok(h),
                Err(_) => continue,
            }
        }
        Err(BackendError::ShardDown(last))
    }

    /// One `OP_STATS` round trip against a shard, feeding the health
    /// machine — the background prober's body, also usable directly.
    pub fn probe(&self, shard: usize) -> Result<WireStats, BackendError> {
        self.single_attempt(
            shard,
            &(Arc::new(|c: &mut Client| c.stats()) as Op<WireStats>),
        )
    }

    /// Two-phase update, phase one: stage `events` at `target_epoch`.
    pub fn update_prepare(
        &self,
        shard: usize,
        target_epoch: u64,
        events: &[fastppv_graph::gen::EdgeEvent],
    ) -> Result<Result<(), String>, BackendError> {
        let events = events.to_vec();
        self.single_attempt(
            shard,
            &(Arc::new(move |c: &mut Client| c.update_prepare(target_epoch, &events))
                as Op<Result<(), String>>),
        )
    }

    /// Two-phase update, phase two: publish the staged epoch.
    pub fn update_commit(
        &self,
        shard: usize,
        target_epoch: u64,
    ) -> Result<Result<(), String>, BackendError> {
        self.single_attempt(
            shard,
            &(Arc::new(move |c: &mut Client| c.update_commit(target_epoch))
                as Op<Result<(), String>>),
        )
    }

    /// Discards a shard's staged snapshot.
    pub fn update_abort(&self, shard: usize) -> Result<Result<(), String>, BackendError> {
        self.single_attempt(
            shard,
            &(Arc::new(|c: &mut Client| c.update_abort()) as Op<Result<(), String>>),
        )
    }

    /// Starts a background thread probing every shard's stats op at
    /// roughly `interval` (jittered per round so a fleet of routers never
    /// synchronizes its probes). Probing respects each shard's breaker —
    /// a Down shard is only touched once its backoff window expires — so
    /// recovery is detected even when no client traffic flows.
    pub fn spawn_prober(&self, interval: Duration) -> ProberHandle {
        assert!(!interval.is_zero(), "probe interval must be positive");
        let backend = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut rng = ChaCha8Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        let handle = std::thread::Builder::new()
            .name("fastppv-prober".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    for shard in 0..backend.num_shards() {
                        if stop_flag.load(Ordering::Acquire) {
                            return;
                        }
                        let _ = backend.probe(shard);
                    }
                    // Sleep in [interval, 1.5·interval), in short slices
                    // so shutdown is prompt.
                    let nap = interval + interval.mul_f64(rng.gen::<f64>() * 0.5);
                    let deadline = Instant::now() + nap;
                    while Instant::now() < deadline && !stop_flag.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(25).min(nap));
                    }
                }
            })
            .expect("spawn prober thread");
        ProberHandle {
            stop,
            handle: Some(handle),
        }
    }

    /// A single non-hedged attempt (probes and update phases, where
    /// duplication would be wrong), still feeding the health machine.
    fn single_attempt<T: Send + 'static>(
        &self,
        shard: usize,
        op: &Op<T>,
    ) -> Result<T, BackendError> {
        let inner = &self.inner;
        if !inner.health.allow(shard, Instant::now()) {
            return Err(BackendError::ShardDown(shard));
        }
        let started = Instant::now();
        let client = match inner.take_pooled(shard) {
            Some(c) => Ok(c),
            None => inner
                .addr(shard)
                .and_then(|addr| Client::connect_with(addr, inner.options.client)),
        };
        let outcome = client.and_then(|mut c| {
            op(&mut c).inspect(|_| {
                inner.return_client(shard, c);
            })
        });
        match outcome {
            Ok(t) => {
                inner.health.on_success(shard, started.elapsed());
                Ok(t)
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                inner.health.on_failure(shard, Instant::now());
                Err(BackendError::Protocol {
                    shard,
                    message: e.to_string(),
                })
            }
            Err(_) => {
                inner.health.on_failure(shard, Instant::now());
                Err(BackendError::ShardDown(shard))
            }
        }
    }

    /// Runs `op` against a shard with straggler hedging: the first
    /// attempt reuses a pooled connection; if no reply lands within the
    /// hedge delay (p99 × factor, floored), a duplicate runs on a fresh
    /// connection and the first reply wins. A failed first attempt
    /// triggers the second immediately (fast retry). At most two
    /// attempts; the whole call is bounded by `sub_request_timeout`.
    fn hedged<T: Send + 'static>(&self, shard: usize, op: Op<T>) -> Result<T, BackendError> {
        let inner = &self.inner;
        if !inner.health.allow(shard, Instant::now()) {
            return Err(BackendError::ShardDown(shard));
        }
        let started = Instant::now();
        let total = inner.options.sub_request_timeout;
        let hedge_delay = inner.hedge_delay(shard);
        let (tx, rx) = mpsc::channel::<io::Result<T>>();
        spawn_attempt(inner, shard, true, Arc::clone(&op), tx.clone());
        let mut launched = 1u32;
        let mut failed = 0u32;
        loop {
            let elapsed = started.elapsed();
            if elapsed >= total {
                break;
            }
            if failed == launched {
                if launched >= 2 {
                    break;
                }
                // First attempt already failed: retry immediately on a
                // fresh connection instead of waiting for the hedge
                // timer.
                launched += 1;
                spawn_attempt(inner, shard, false, Arc::clone(&op), tx.clone());
                continue;
            }
            let wait = if launched < 2 && inner.options.hedge {
                hedge_delay.saturating_sub(elapsed).min(total - elapsed)
            } else {
                total - elapsed
            };
            match rx.recv_timeout(wait) {
                Ok(Ok(t)) => {
                    inner.health.on_success(shard, started.elapsed());
                    return Ok(t);
                }
                Ok(Err(e)) if e.kind() == io::ErrorKind::InvalidData => {
                    inner.health.on_failure(shard, Instant::now());
                    return Err(BackendError::Protocol {
                        shard,
                        message: e.to_string(),
                    });
                }
                Ok(Err(_)) => failed += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if launched < 2 && inner.options.hedge && started.elapsed() >= hedge_delay {
                        launched += 1;
                        inner.hedges.fetch_add(1, Ordering::Relaxed);
                        spawn_attempt(inner, shard, false, Arc::clone(&op), tx.clone());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        inner.health.on_failure(shard, Instant::now());
        Err(BackendError::ShardDown(shard))
    }
}

impl SubBackend for TcpBackend {
    fn num_shards(&self) -> usize {
        self.inner.addrs.len()
    }

    fn prime0(
        &self,
        shard: usize,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WirePrime0>, BackendError> {
        self.hedged(
            shard,
            Arc::new(move |c: &mut Client| c.prime0(query, expect_epoch)),
        )
    }

    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError> {
        let sublist = sublist.to_vec();
        self.hedged(
            shard,
            Arc::new(move |c: &mut Client| c.expand(&sublist, expect_epoch)),
        )
    }
}

/// Stops and joins the prober thread on drop.
pub struct ProberHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ProberHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// In-process backend
// ---------------------------------------------------------------------------

/// In-process shards: the same [`SubBackend`] surface over a vector of
/// [`QueryService`]s, with per-shard kill switches. The exactness oracle
/// and the fault matrix drive the production merge loop through this —
/// no sockets, fully deterministic.
pub struct LocalBackend<S: PpvStore + Send + Sync> {
    shards: Vec<Arc<QueryService<S>>>,
    dead: Vec<AtomicBool>,
}

impl<S: PpvStore + Send + Sync> LocalBackend<S> {
    /// A backend over in-process shard services.
    pub fn new(shards: Vec<Arc<QueryService<S>>>) -> Self {
        let dead = (0..shards.len()).map(|_| AtomicBool::new(false)).collect();
        LocalBackend { shards, dead }
    }

    /// Simulates a crashed (or recovered) shard: while dead, every
    /// sub-request fails with [`BackendError::ShardDown`].
    pub fn set_dead(&self, shard: usize, dead: bool) {
        self.dead[shard].store(dead, Ordering::Release);
    }

    /// The underlying shard service (tests drive updates through it).
    pub fn service(&self, shard: usize) -> &Arc<QueryService<S>> {
        &self.shards[shard]
    }

    fn check_alive(&self, shard: usize) -> Result<(), BackendError> {
        // An out-of-range shard index is served exactly like a dead
        // shard: the scatter layer degrades instead of panicking.
        let dead = self.dead.get(shard).ok_or(BackendError::ShardDown(shard))?;
        if dead.load(Ordering::Acquire) {
            Err(BackendError::ShardDown(shard))
        } else {
            Ok(())
        }
    }
}

impl<S: PpvStore + Send + Sync> SubBackend for LocalBackend<S> {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn prime0(
        &self,
        shard: usize,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WirePrime0>, BackendError> {
        self.check_alive(shard)?;
        let service = self
            .shards
            .get(shard)
            .ok_or(BackendError::ShardDown(shard))?;
        Ok(service.prime0_reply(query, expect_epoch))
    }

    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError> {
        self.check_alive(shard)?;
        let service = self
            .shards
            .get(shard)
            .ok_or(BackendError::ShardDown(shard))?;
        Ok(service.expand_reply(sublist, expect_epoch))
    }
}
