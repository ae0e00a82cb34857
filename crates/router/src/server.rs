//! The router's TCP front-end: protocol-compatible with a single
//! `fastppv serve` process, so clients connect to a cluster unchanged.
//!
//! Per client request the router runs [`crate::merge_query`] over the
//! backend, with:
//!
//! * an **answer cache** ([`fastppv_server::EpochCache`]) keyed
//!   `(query, stopping condition, top_k)` at the merge's epoch — a hit
//!   skips the scatter entirely, and an advance-only epoch watermark,
//!   publishing the cache as it moves, keeps post-update answers from
//!   mixing with pre-update ones. A request for the top `k` is merged,
//!   cached and answered as those `k` entries only, never as the whole
//!   vector. It is the cluster's only cache: shards compute every
//!   sub-request straight into its reply and keep none;
//! * **typed degradation** — a clean merge answers normally; a degraded
//!   merge that still meets the request's accuracy target is served with
//!   the `degraded` flag and its honest (inflated) φ; a degraded merge
//!   that *misses* a requested L1 target is shed as
//!   `Overloaded{retry_after}` rather than silently under-delivering;
//! * **two-phase update forwarding** — an `OP_UPDATE` frame against the
//!   router coordinates the phase across every shard (prepare-all with
//!   abort-on-failure, commit-all), then advances the epoch watermark;
//! * a **load ledger** ([`fastppv_server::LoadTracker`], as on a shard)
//!   behind `OP_STATS`.
//!
//! The router owns no connection handling: it implements
//! [`fastppv_server::net::Frontend`] and [`serve_router`] starts it on
//! the same acceptor and dispatch loop a shard runs, so frame limits,
//! malformed-frame handling and option validation cannot drift between
//! the two. It serves no shard sub-ops (`OP_PRIME0` / `OP_EXPAND`): a
//! client that sends one is disconnected.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastppv_cluster::ShardMap;
use fastppv_graph::gen::EdgeEvent;
use fastppv_graph::vec::top_k_of;
use fastppv_graph::{NodeId, ScoreScratch};
use fastppv_server::net::{
    serve_with_options, Frontend, NetOptions, NetServer, ServerHello, UpdatePhase, WireAnswer,
    WireRequest, WireResponse, WireStats, WireStop,
};
use fastppv_server::{EpochCache, LoadTracker};
use parking_lot::Mutex;

use crate::merge::{merge_query, MergeError, MergedAnswer, RouterConfig, SubBackend};
use crate::publish::{commit_all, prepare_all, PublishError, UpdateBackend};

/// Serving knobs of a [`Router`].
#[derive(Clone, Copy, Debug)]
pub struct RouterOptions {
    /// Merged answers cached (`0` disables). Keyed by `(query, stop,
    /// top_k)` at one epoch; degraded and deadline-bounded answers are
    /// never cached.
    pub cache_capacity: usize,
    /// Connection-level robustness knobs (frame stall, write timeout).
    pub net: NetOptions,
    /// Backoff hint attached to `Overloaded` responses.
    pub retry_after: Duration,
    /// Shed a degraded answer that misses its requested L1 target
    /// (instead of serving the miss with the `degraded` flag).
    pub shed_unattainable: bool,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            cache_capacity: 4096,
            net: NetOptions::default(),
            retry_after: Duration::from_millis(250),
            shed_unattainable: true,
        }
    }
}

/// Cache key: query, stopping-condition discriminant + payload bits, and
/// the entries asked for (0 = all).
type CacheKey = (NodeId, u8, u64, usize);

fn stop_key(stop: &WireStop) -> (u8, u64) {
    match stop {
        WireStop::Iterations(eta) => (0, *eta as u64),
        WireStop::L1Error(target) => (1, target.to_bits()),
    }
}

/// How many merge workspaces (dense score scratches) stay pooled.
const WORKSPACE_POOL: usize = 16;

/// A stateless scatter/gather front-end over a shard backend. `&self`
/// end to end — one router serves any number of connection threads.
pub struct Router<B> {
    backend: B,
    map: ShardMap,
    cfg: RouterConfig,
    options: RouterOptions,
    cache: EpochCache<CacheKey, Arc<MergedAnswer>>,
    /// Advance-only watermark of the highest epoch seen in any merged
    /// answer or committed update: cache lookups key on it, so answers
    /// from before an observed update stop being served immediately.
    epoch: AtomicU64,
    workspaces: Mutex<Vec<ScoreScratch>>,
    load: LoadTracker,
}

impl<B: SubBackend> Router<B> {
    /// A router over `backend` and the hub→shard map, configured with
    /// the cluster's α/δ/node-count (from shard hellos — see
    /// [`crate::TcpBackend::discover_hello`]).
    pub fn new(backend: B, map: ShardMap, cfg: RouterConfig, options: RouterOptions) -> Self {
        assert_eq!(
            map.num_nodes(),
            cfg.num_nodes,
            "shard map and cluster disagree on the node count"
        );
        assert_eq!(
            backend.num_shards(),
            map.num_shards() as usize,
            "backend and shard map disagree on the shard count"
        );
        Router {
            backend,
            map,
            cfg,
            options,
            cache: EpochCache::new(options.cache_capacity),
            epoch: AtomicU64::new(0),
            workspaces: Mutex::new(Vec::new()),
            load: LoadTracker::new(None),
        }
    }

    /// The backend (health board access for callers embedding a router).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The highest cluster epoch this router has observed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The router's own load picture, served to `OP_STATS` probes.
    pub fn stats(&self) -> WireStats {
        WireStats::from_load(self.load.stats(), self.epoch())
    }

    /// Raises the watermark to `seen`; when it moves, the answer cache
    /// moves with it, dropping every answer merged before.
    fn advance_epoch(&self, seen: u64) {
        if self.epoch.fetch_max(seen, Ordering::AcqRel) < seen {
            self.cache.publish(seen);
        }
    }

    fn take_workspace(&self) -> ScoreScratch {
        self.workspaces
            .lock()
            .pop()
            .unwrap_or_else(|| ScoreScratch::new(self.cfg.num_nodes))
    }

    fn return_workspace(&self, ws: ScoreScratch) {
        let mut pool = self.workspaces.lock();
        if pool.len() < WORKSPACE_POOL {
            pool.push(ws);
        }
    }

    /// Counts a shed decision and answers it: a typed, retryable
    /// rejection carrying the configured backoff hint.
    fn shed(&self) -> WireResponse {
        self.load.note_shed();
        WireResponse::Overloaded {
            retry_after_ms: (self.options.retry_after.as_millis() as u32).max(1),
        }
    }

    /// Serves one wire request end to end: cache, scatter/gather merge,
    /// degradation policy, response formatting.
    pub fn serve_request(&self, request: &WireRequest) -> WireResponse {
        let started = Instant::now();
        let _in_flight = self.load.enter(1);
        let response = self.serve_request_inner(request, started);
        self.load.record(started.elapsed());
        response
    }

    fn serve_request_inner(&self, request: &WireRequest, started: Instant) -> WireResponse {
        let (tag, bits) = stop_key(&request.stop);
        let top_k = request.top_k as usize;
        let key = (request.query, tag, bits, top_k);
        let cacheable = request.deadline_ms.is_none();
        if cacheable {
            if let Some(hit) = self.cache.get(&key, self.epoch()) {
                return WireResponse::Answer(format_answer(
                    &hit,
                    request.top_k,
                    true,
                    started.elapsed(),
                ));
            }
        }
        let mut stop = request.stop.condition();
        if let Some(ms) = request.deadline_ms {
            stop = stop.or_time_limit(Duration::from_millis(ms as u64));
        }
        let mut ws = self.take_workspace();
        let merged = merge_query(
            &self.backend,
            &self.map,
            &self.cfg,
            request.query,
            &stop,
            top_k,
            &mut ws,
        );
        self.return_workspace(ws);
        let merged = match merged {
            Ok(m) => m,
            // Nothing serveable at all: a typed, retryable rejection.
            Err(MergeError::AllShardsDown) | Err(MergeError::EpochSkew) => return self.shed(),
            Err(MergeError::Shard(msg)) => return WireResponse::Error(msg),
        };
        self.advance_epoch(merged.epoch);
        if merged.degraded {
            self.load.note_degraded();
            // A degraded answer that misses a requested accuracy bound is
            // an unattainable contract right now — shed it honestly
            // instead of serving a silent miss.
            if self.options.shed_unattainable {
                if let WireStop::L1Error(target) = request.stop {
                    if merged.l1_error > target {
                        return self.shed();
                    }
                }
            }
        }
        let answer = format_answer(&merged, request.top_k, false, started.elapsed());
        if cacheable && !merged.degraded {
            self.cache.insert(key, merged.epoch, Arc::new(merged));
        }
        WireResponse::Answer(answer)
    }
}

/// The wire answer to a request asking for `top_k` entries. For `top_k > 0`
/// the merge already kept only those entries (in id order), so this only
/// puts them in rank order.
fn format_answer(merged: &MergedAnswer, top_k: u32, cached: bool, latency: Duration) -> WireAnswer {
    let entries = if top_k == 0 {
        merged.scores.clone()
    } else {
        top_k_of(merged.scores.iter().copied(), top_k as usize)
    };
    WireAnswer {
        query: merged.query,
        iterations: merged.iterations as u32,
        l1_error: merged.l1_error,
        exhausted: merged.exhausted,
        cached,
        degraded: merged.degraded,
        latency,
        entries,
    }
}

// ---------------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------------

/// A running router front-end: the same handle, acceptor and
/// [`fastppv_server::net::MAX_CONNECTIONS`] admission cap as a shard's.
pub type RouterServer = NetServer;

/// Starts the router front-end on the one accept and dispatch loop
/// shards run ([`fastppv_server::net::serve_with_options`], with
/// [`RouterOptions::net`]): `OP_QUERY`, `OP_STATS` and `OP_UPDATE` frames
/// are served against the shared [`Router`]; the shard-only sub-ops
/// `OP_PRIME0` / `OP_EXPAND` close the connection. Returns immediately
/// with a [`RouterServer`] handle.
pub fn serve_router<B>(
    router: Arc<Router<B>>,
    listener: TcpListener,
) -> std::io::Result<RouterServer>
where
    B: SubBackend + UpdateBackend + Send + Sync + 'static,
{
    serve_with_options(Arc::clone(&router), listener, router.options.net)
}

/// The router as a TCP front-end: a merged answer per request, its own
/// load picture, and two-phase update forwarding. Deadlines bound each
/// merge; shutdown does not cancel one in flight.
impl<B> Frontend for Router<B>
where
    B: SubBackend + UpdateBackend + Send + Sync + 'static,
{
    const NAME: &'static str = "fastppv-route";

    fn hello(&self) -> ServerHello {
        ServerHello {
            num_nodes: self.cfg.num_nodes as u64,
            epoch: self.epoch(),
            alpha: self.cfg.alpha,
            delta: self.cfg.delta,
        }
    }

    /// Serves the batch in order. Each request's scatter puts all of its
    /// sub-requests in flight from this connection's thread; only a
    /// straggling shard is raced on threads.
    fn query(&self, requests: &[WireRequest], _stop: &AtomicBool) -> Vec<WireResponse> {
        requests.iter().map(|r| self.serve_request(r)).collect()
    }

    fn stats(&self) -> WireStats {
        Router::stats(self)
    }

    /// Forwards the phase to every shard. Prepare failures abort the
    /// round everywhere; a full commit advances the router's epoch
    /// watermark, which drops the answer cache.
    fn update(
        &self,
        phase: UpdatePhase,
        target_epoch: u64,
        events: &[EdgeEvent],
    ) -> Result<(), String> {
        match phase {
            UpdatePhase::Prepare => {
                prepare_all(&self.backend, target_epoch, events).map_err(|e| e.to_string())
            }
            UpdatePhase::Commit => match commit_all(&self.backend, target_epoch) {
                Ok(()) => {
                    self.advance_epoch(target_epoch);
                    Ok(())
                }
                Err(PublishError::Commit { failures }) => Err(format!(
                    "commit failed on {} shard(s): {}",
                    failures.len(),
                    failures
                        .iter()
                        .map(|(s, m)| format!("[{s}] {m}"))
                        .collect::<Vec<_>>()
                        .join("; ")
                )),
                Err(e) => Err(e.to_string()),
            },
            UpdatePhase::Abort => {
                for s in 0..UpdateBackend::num_shards(&self.backend) {
                    let _ = self.backend.abort(s);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendError;
    use fastppv_server::net::{SubReply, WireExpand, WirePrime0};

    /// A backend whose shard fails by panicking mid-scatter.
    struct PanickingBackend;

    impl SubBackend for PanickingBackend {
        fn num_shards(&self) -> usize {
            1
        }

        fn prime0(
            &self,
            _shard: usize,
            _query: NodeId,
            _expect_epoch: Option<u64>,
        ) -> Result<SubReply<WirePrime0>, BackendError> {
            panic!("shard backend failed");
        }

        fn expand(
            &self,
            _shard: usize,
            _sublist: &[(NodeId, f64)],
            _expect_epoch: Option<u64>,
        ) -> Result<SubReply<WireExpand>, BackendError> {
            panic!("shard backend failed");
        }
    }

    #[test]
    fn a_request_that_unwinds_leaves_the_in_flight_count() {
        let cfg = RouterConfig {
            alpha: 0.15,
            delta: 0.0,
            num_nodes: 8,
        };
        let router = Router::new(
            PanickingBackend,
            ShardMap::round_robin(8, 1),
            cfg,
            RouterOptions::default(),
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.serve_request(&WireRequest::iterations(0, 2))
        }));
        assert!(unwound.is_err(), "the backend panic reaches the caller");
        assert_eq!(router.stats().in_flight, 0, "the unwound request left");
    }
}
