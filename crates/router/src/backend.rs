//! Shard backends: how the merge loop reaches shards.
//!
//! [`TcpBackend`] is the production path — per-shard connection pools
//! over the v3 protocol, gated by the [`crate::health`] state machine.
//! A scatter runs on the caller's thread: it writes every target shard's
//! sub-request on a pooled connection before reading any reply, then
//! reads the replies in shard order, so a routed query starts no thread
//! while its shards keep up. Threads enter only for **hedged
//! sub-requests**: a shard whose reply has not arrived in full within a
//! p99-derived delay (or whose first attempt failed, or which has no
//! pooled connection yet) is raced — the original attempt keeps waiting
//! on a thread while a duplicate goes out on a fresh connection, and the
//! first response wins. Each raced shard gets its own thread and its own
//! hedge clock. Hedging can never double-count mass: the merge takes
//! exactly one reply per sub-request slot, and each connection validates
//! the echoed request id, so a late loser is simply dropped with its
//! connection.
//!
//! [`LocalBackend`] runs shards in-process (no sockets) with injectable
//! failures — the exactness oracle and fault-matrix tests drive the same
//! merge loop through it.

use std::borrow::Borrow;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fastppv_core::PpvStore;
use fastppv_graph::NodeId;
use fastppv_server::net::{
    Client, ClientOptions, ReplyWait, ServerHello, SubReply, WireExpand, WirePrime0, WireStats,
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

/// Writes a sub-request and returns its request id
/// (`Client::send_prime0` / `Client::send_expand`).
type SendFn<R> = fn(&mut Client, &R, Option<u64>) -> io::Result<u64>;

/// Reads the reply to request `id` off a connection the request went out
/// on (`Client::recv_prime0` / `Client::recv_expand`).
type RecvFn<T> = fn(&mut Client, u64) -> io::Result<T>;

/// A straggler's original attempt, handed to a thread: keep waiting for
/// the reply to `id` on `client`. A connection that completes its round
/// trip is back in sync and returns to the pool even if it lost the
/// hedge race; a failed one is dropped.
fn spawn_wait<T: Send + 'static>(
    inner: &Arc<Inner>,
    shard: usize,
    (mut client, id): (Client, u64),
    recv: RecvFn<T>,
    tx: mpsc::Sender<io::Result<T>>,
) {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let reply = recv(&mut client, id);
        if reply.is_ok() {
            inner.return_client(shard, client);
        }
        let _ = tx.send(reply);
    });
}

/// A duplicate or retry on its own thread: run the whole op on a fresh
/// connection and report through the channel. A completed connection
/// joins the pool; a failed one is dropped.
fn spawn_attempt<T: Send + 'static>(
    inner: &Arc<Inner>,
    shard: usize,
    op: Op<T>,
    tx: mpsc::Sender<io::Result<T>>,
) {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let reply = inner
            .addr(shard)
            .and_then(|addr| Client::connect_with(addr, inner.options.client))
            .and_then(|mut client| op(&mut client).inspect(|_| inner.return_client(shard, client)));
        let _ = tx.send(reply);
    });
}

/// One shard's sub-request partway through a scatter.
enum Flight<T> {
    /// Sent on this pooled connection under this request id; the reply is
    /// not in yet, or only in part (buffered on the client).
    Sent(Client, u64),
    /// No pooled connection: the first attempt, connect included, runs on
    /// a thread and reports on this channel — a shard that accepts but
    /// never greets cannot hold the caller past its hedge delay.
    Spawned(mpsc::Sender<io::Result<T>>, mpsc::Receiver<io::Result<T>>),
    /// The first attempt failed before its reply (a write error, or a
    /// stale pooled connection): retry at once.
    Failed,
    /// Settled.
    Done(Result<T, BackendError>),
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
                Err(self.protocol_failure(shard, e))
            }
            Err(_) => {
                inner.health.on_failure(shard, Instant::now());
                Err(BackendError::ShardDown(shard))
            }
        }
    }

    /// Sends one sub-request per target and gathers the replies, in
    /// `targets` order. Every request is written on a pooled connection
    /// before any reply is awaited, so the shards work concurrently; then
    /// [`Self::gather_inline`] reads the replies on the caller's thread.
    /// Whatever that leaves open — a straggler, a failed first attempt —
    /// goes to [`Self::race`], one racing thread per open shard, each on
    /// its own hedge clock. So does every target when some shard has no
    /// pooled connection (a cold or drained pool): its first attempt,
    /// connect included, starts on a thread, so that a shard which
    /// accepts but never greets cannot hold the caller.
    fn scatter<R, T>(
        &self,
        targets: &[(usize, &R)],
        expect_epoch: Option<u64>,
        send: SendFn<R>,
        recv: RecvFn<T>,
    ) -> Vec<Result<T, BackendError>>
    where
        R: ?Sized + ToOwned + 'static,
        R::Owned: Send + Sync + 'static,
        T: Send + 'static,
    {
        let inner = &self.inner;
        // The whole sub-request as one op, for an attempt on a thread: an
        // owned copy of the request, sent and read on one connection.
        let op = |request: &R| -> Op<T> {
            let request = request.to_owned();
            Arc::new(move |c: &mut Client| {
                let id = send(c, request.borrow(), expect_epoch)?;
                recv(c, id)
            })
        };
        let mut flights: Vec<(Instant, Flight<T>)> = targets
            .iter()
            .map(|&(shard, request)| {
                let started = Instant::now();
                if !inner.health.allow(shard, started) {
                    return (started, Flight::Done(Err(BackendError::ShardDown(shard))));
                }
                let flight = match inner.take_pooled(shard) {
                    Some(mut c) => match send(&mut c, request, expect_epoch) {
                        Ok(id) => Flight::Sent(c, id),
                        Err(_) => Flight::Failed,
                    },
                    None => {
                        let (tx, rx) = mpsc::channel();
                        spawn_attempt(inner, shard, op(request), tx.clone());
                        Flight::Spawned(tx, rx)
                    }
                };
                (started, flight)
            })
            .collect();
        if flights
            .iter()
            .all(|(_, f)| matches!(f, Flight::Sent(..) | Flight::Done(_)))
        {
            self.gather_inline(targets, &mut flights, recv);
        }
        std::thread::scope(|scope| {
            let settling: Vec<_> = targets
                .iter()
                .zip(flights)
                .map(|(&(shard, request), (started, flight))| match flight {
                    Flight::Done(reply) => (shard, Ok(reply)),
                    open => {
                        let op = op(request);
                        let racing = scope.spawn(move || self.race(shard, started, open, recv, op));
                        (shard, Err(racing))
                    }
                })
                .collect();
            settling
                .into_iter()
                .map(|(shard, settled)| {
                    settled.unwrap_or_else(|racing| {
                        racing.join().unwrap_or(Err(BackendError::ShardDown(shard)))
                    })
                })
                .collect()
        })
    }

    /// Reads the replies in `targets` order on the caller's thread. Each
    /// shard's whole reply is awaited up to that shard's own hedge
    /// deadline (p99 × factor, floored, from when its request went out);
    /// a reply that has not finished by then — started or not — stays
    /// buffered on its connection for the race. Once one shard needs the
    /// race, the rest are read only as far as they have already arrived,
    /// so no shard's race waits behind another shard's read. A latency
    /// sample is recorded only for a reply no earlier shard held up: the
    /// first one read, or one the gather had to wait for.
    fn gather_inline<R: ?Sized, T>(
        &self,
        targets: &[(usize, &R)],
        flights: &mut [(Instant, Flight<T>)],
        recv: RecvFn<T>,
    ) {
        let inner = &self.inner;
        let total = inner.options.sub_request_timeout;
        let mut racing = false;
        let mut first = true;
        for (&(shard, _), (started, flight)) in targets.iter().zip(flights.iter_mut()) {
            let (mut client, id) = match std::mem::replace(flight, Flight::Failed) {
                Flight::Sent(client, id) => (client, id),
                settled => {
                    *flight = settled;
                    continue;
                }
            };
            let window = if inner.options.hedge {
                inner.hedge_delay(shard).min(total)
            } else {
                total
            };
            // A socket read timeout shorter than the window fails the
            // attempt, as it would fail a blocking read.
            let read_cut = inner.options.client.read_timeout.filter(|&r| r < window);
            let deadline = if racing {
                Instant::now()
            } else {
                *started + read_cut.unwrap_or(window)
            };
            let sampled = std::mem::replace(&mut first, false);
            *flight = match client.wait_reply(deadline) {
                Ok(ReplyWait::Pending) => {
                    let cut = read_cut.is_some() && !racing;
                    racing = true;
                    if cut {
                        Flight::Failed
                    } else {
                        Flight::Sent(client, id)
                    }
                }
                Ok(wait) => match recv(&mut client, id) {
                    Ok(t) => {
                        inner.return_client(shard, client);
                        if sampled || wait == ReplyWait::Arrived {
                            inner.health.on_success(shard, started.elapsed());
                        } else {
                            inner.health.on_success_unsampled(shard);
                        }
                        Flight::Done(Ok(t))
                    }
                    Err(e) => self.inline_failure(shard, e, &mut racing),
                },
                Err(e) => self.inline_failure(shard, e, &mut racing),
            };
        }
    }

    /// An inline read that failed: a protocol violation settles the
    /// shard; anything else is retried by the race.
    fn inline_failure<T>(&self, shard: usize, e: io::Error, racing: &mut bool) -> Flight<T> {
        if e.kind() == io::ErrorKind::InvalidData {
            return Flight::Done(Err(self.protocol_failure(shard, e)));
        }
        *racing = true;
        Flight::Failed
    }

    /// The straggler path, on threads: the original attempt keeps
    /// waiting (or, if it failed, a retry runs at once on a fresh
    /// connection); once the hedge delay has passed, a duplicate runs on
    /// a fresh connection, and the first reply wins. At most two
    /// attempts; the whole sub-request, counted from `started`, is bounded
    /// by `sub_request_timeout`.
    fn race<T: Send + 'static>(
        &self,
        shard: usize,
        started: Instant,
        original: Flight<T>,
        recv: RecvFn<T>,
        op: Op<T>,
    ) -> Result<T, BackendError> {
        let inner = &self.inner;
        let total = inner.options.sub_request_timeout;
        let hedge_delay = inner.hedge_delay(shard);
        let (tx, rx, mut failed) = match original {
            Flight::Done(reply) => return reply,
            Flight::Spawned(tx, rx) => (tx, rx, 0u32),
            Flight::Sent(client, id) => {
                let (tx, rx) = mpsc::channel();
                spawn_wait(inner, shard, (client, id), recv, tx.clone());
                (tx, rx, 0)
            }
            Flight::Failed => {
                let (tx, rx) = mpsc::channel();
                (tx, rx, 1)
            }
        };
        let mut launched = 1u32;
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
                spawn_attempt(inner, shard, Arc::clone(&op), tx.clone());
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
                    return Err(self.protocol_failure(shard, e));
                }
                Ok(Err(_)) => failed += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if launched < 2 && inner.options.hedge && started.elapsed() >= hedge_delay {
                        launched += 1;
                        inner.hedges.fetch_add(1, Ordering::Relaxed);
                        spawn_attempt(inner, shard, Arc::clone(&op), tx.clone());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        inner.health.on_failure(shard, Instant::now());
        Err(BackendError::ShardDown(shard))
    }

    /// Records a protocol violation (not retryable) against `shard`.
    fn protocol_failure(&self, shard: usize, e: io::Error) -> BackendError {
        self.inner.health.on_failure(shard, Instant::now());
        BackendError::Protocol {
            shard,
            message: e.to_string(),
        }
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
        self.scatter(
            &[(shard, &query)],
            expect_epoch,
            |c, &query, expect_epoch| c.send_prime0(query, expect_epoch),
            Client::recv_prime0,
        )
        .pop()
        .unwrap_or(Err(BackendError::ShardDown(shard)))
    }

    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError> {
        self.expand_all(&[(shard, sublist)], expect_epoch)
            .pop()
            .unwrap_or(Err(BackendError::ShardDown(shard)))
    }

    fn expand_all(
        &self,
        targets: &[(usize, &[(NodeId, f64)])],
        expect_epoch: Option<u64>,
    ) -> Vec<Result<SubReply<WireExpand>, BackendError>> {
        self.scatter(
            targets,
            expect_epoch,
            Client::send_expand,
            Client::recv_expand,
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
        Ok(service.prime0(query, expect_epoch))
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
        Ok(service.expand(sublist, expect_epoch))
    }
}
