//! The concurrent query service: an epoch-stamped immutable serving
//! snapshot behind a swap cell, a fixed-size worker pool over a bounded
//! submission queue, and a hot-PPV result cache.
//!
//! FastPPV's online phase is read-only over the graph, hub set, and index,
//! so everything a query touches lives in one immutable [`ServingState`]
//! (graph + hubs + store + epoch) published through an `ArcSwap`. Workers
//! pin one snapshot per request ([`QueryService::snapshot`] is an `Arc`
//! clone); each brings its own [`fastppv_core::QueryWorkspace`] (the only
//! per-query mutable state). Requests carry their own stopping condition —
//! iteration budget η, accuracy-aware L1 target (Eq. 6), or a wall-clock
//! deadline — so one deployment serves latency-budgeted and
//! accuracy-budgeted traffic side by side.
//!
//! [`QueryService::apply_update`] takes `&self` and runs **concurrently
//! with serving**: it refreshes the index against the pinned old snapshot
//! (via [`fastppv_core::dynamic`]), then publishes a new snapshot with a
//! bumped epoch. In-flight queries finish on the old state undisturbed —
//! they hold its `Arc` — and simply drop it when done.
//!
//! Deterministic requests (pure iteration stops) are memoized in an
//! [`EpochCache`] keyed by `(query, η, k)`, where `k` is how many entries
//! the caller asked for (0 = the whole vector; the network front-end
//! passes the wire request's `top_k`, every in-process path 0). A top-`k`
//! request is finished from the engine's dense scratch as its `k` best
//! entries, so neither the answer nor its cache entry is ever larger than
//! the question. An answer is cached only when it is what its key
//! promises — it ran its `η` rounds or exhausted the frontier — so a
//! cancelled partial answer is never served as a complete one. The cache
//! follows the one epoch rule of [`EpochCache`], so a publish clears it
//! and a worker that raced an update can never resurrect pre-update
//! scores. It is the service's only cache: a shard's scattered
//! sub-requests ([`QueryService::prime0`] / [`QueryService::expand`], in
//! [`crate::net`]) are computed straight into their wire replies, and the
//! router caches the answers they merge into. Admission, degradation
//! and the in-flight / p99 figures live in one [`LoadTracker`], the same
//! ledger the router keeps.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use arc_swap::ArcSwap;
use parking_lot::Mutex;

use fastppv_core::dynamic::{same_adjacency, DeltaConfig, RefreshStats, Refresher};
use fastppv_core::query::{QueryWorkspace, StoppingCondition};
use fastppv_core::{Config, FlatIndex, HubSet, PpvStore, QueryEngine};
use fastppv_graph::{Graph, NodeId, SparseVector};

use crate::cache::{CacheStats, EpochCache, HeapBytes};
use crate::load::{Admission, LoadRegime, LoadStats, LoadTracker, OverloadOptions};

/// Sizing knobs of a [`QueryService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Worker threads per batch (the paper's online phase is CPU-bound, so
    /// more than the core count buys nothing).
    pub workers: usize,
    /// Bound of the submission queue; submission blocks when the pool falls
    /// this far behind (backpressure instead of unbounded buffering).
    pub queue_capacity: usize,
    /// Entries in the hot-PPV result cache (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            queue_capacity: 1024,
            cache_capacity: 4096,
        }
    }
}

impl ServiceOptions {
    fn validate(&self) {
        assert!(self.workers >= 1, "a service needs at least one worker");
        assert!(self.queue_capacity >= 1, "queue capacity must be positive");
    }
}

/// One query to serve.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The query node.
    pub query: NodeId,
    /// When to stop iterating (see [`StoppingCondition`]).
    pub stop: StoppingCondition,
    /// Absolute wall-clock deadline; converted to a remaining-time limit at
    /// execution, so time spent waiting in the queue counts against it.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request running exactly `eta` increments (cacheable).
    pub fn iterations(query: NodeId, eta: usize) -> Self {
        Request {
            query,
            stop: StoppingCondition::iterations(eta),
            deadline: None,
        }
    }

    /// A request running until `φ ≤ target`.
    pub fn l1_error(query: NodeId, target: f64) -> Self {
        Request {
            query,
            stop: StoppingCondition::l1_error(target),
            deadline: None,
        }
    }

    /// Adds an absolute deadline (disables caching for this request).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served query.
#[derive(Clone, Debug)]
pub struct Response {
    /// The query node.
    pub query: NodeId,
    /// What was asked of the PPV estimate, in ascending node id: the whole
    /// vector for an in-process request, or the `k` best entries for a
    /// network request with `top_k = k > 0`. Shared, so cache hits copy
    /// nothing.
    pub scores: Arc<SparseVector>,
    /// Accuracy-aware L1 error `φ` of the estimate (Eq. 6).
    pub l1_error: f64,
    /// Increments run beyond iteration 0.
    pub iterations: usize,
    /// Whether the expansion frontier emptied.
    pub exhausted: bool,
    /// Whether the hot-PPV cache served this response.
    pub cached: bool,
    /// Whether the overload policy capped this request's stopping
    /// condition ([`OverloadOptions`]). The reported [`Response::l1_error`]
    /// is still the certified φ of what was actually computed —
    /// degradation is certified, never silent.
    pub degraded: bool,
    /// Service-side latency: cache probe + (on a miss) engine time.
    pub latency: Duration,
}

impl Response {
    /// Top-`k` nodes by estimated score.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        self.scores.top_k(k)
    }
}

/// The `p`-quantile (0 < p ≤ 1) of an **ascending-sorted** latency sample,
/// by the nearest-rank definition (the smallest value with at least `p·n`
/// of the sample at or below it). Sort once, then take every quantile you
/// need from the same slice.
pub fn percentile_of_sorted(sorted: &[Duration], p: f64) -> Duration {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `p`-quantile of the *union* of two ascending-sorted samples,
/// without materializing (or re-sorting) the merged sample: a two-pointer
/// walk to the nearest rank. Lets a serving report derive its overall
/// percentile from the per-class (hub / non-hub) sorted samples for free.
pub fn percentile_of_sorted_pair(a: &[Duration], b: &[Duration], p: f64) -> Duration {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    let total = a.len() + b.len();
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((total as f64 * p).ceil() as usize).clamp(1, total);
    let (mut i, mut j) = (0usize, 0usize);
    let mut last = Duration::ZERO;
    for _ in 0..rank {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("rank is clamped to the union size"),
        };
        if take_a {
            last = a[i];
            i += 1;
        } else {
            last = b[j];
            j += 1;
        }
    }
    last
}

/// A latency sample boiled down to the figures every serving report needs:
/// request count, median, and 99th percentile (nearest-rank, see
/// [`percentile_of_sorted`]). Used by the CLI serve summary and the bench
/// crate's closed-loop driver to report hub and non-hub sources separately
/// — hub-source requests are index lookups while cold non-hub sources run
/// the prime-PPV kernel, so their latency distributions are different
/// regimes and a pooled percentile hides the tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Requests in the sample.
    pub queries: usize,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
}

impl LatencySummary {
    /// Summarizes a sample that is already ascending-sorted.
    pub fn of_sorted(sorted: &[Duration]) -> Self {
        LatencySummary {
            queries: sorted.len(),
            p50: percentile_of_sorted(sorted, 0.50),
            p99: percentile_of_sorted(sorted, 0.99),
        }
    }

    /// Sorts the sample in place (once), then summarizes it. The sample is
    /// left sorted, so callers can keep slicing quantiles out of it.
    pub fn of_mut(sample: &mut [Duration]) -> Self {
        sample.sort_unstable();
        Self::of_sorted(sample)
    }
}

/// Answer cache key: the query, its iteration budget η, and how many
/// entries were asked for (0 = all).
type CacheKey = (NodeId, u64, usize);

impl HeapBytes for SparseVector {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.entries())
    }
}

impl HeapBytes for Response {
    fn heap_bytes(&self) -> usize {
        self.scores.heap_bytes()
    }
}

/// One immutable serving snapshot: everything a query reads, published
/// atomically as a unit. Readers pin a snapshot (an `Arc` clone) and keep
/// it for the duration of a request or batch; an update never mutates a
/// published snapshot — it builds the next one and swaps it in.
pub struct ServingState<S> {
    graph: Arc<Graph>,
    hubs: Arc<HubSet>,
    store: Arc<S>,
    epoch: u64,
}

impl<S: PpvStore> ServingState<S> {
    /// The graph of this snapshot.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The hub set of this snapshot.
    pub fn hubs(&self) -> &Arc<HubSet> {
        &self.hubs
    }

    /// The PPV store of this snapshot.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The snapshot's epoch: 0 at service creation, +1 per published
    /// update or invalidation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A query engine borrowing this snapshot's pieces.
    pub fn engine(&self, config: Config) -> QueryEngine<'_, S> {
        QueryEngine::new(&self.graph, &self.hubs, self.store.as_ref(), config)
    }
}

/// A concurrent PPV query service over epoch-stamped immutable snapshots.
///
/// The graph, hub set, and store live in a [`ServingState`] behind a swap
/// cell: queries pin the current snapshot, [`QueryService::apply_update`]
/// (`&self` — concurrent with serving) publishes the next one.
pub struct QueryService<S: PpvStore + Send + Sync> {
    state: ArcSwap<ServingState<S>>,
    config: Config,
    // Delta-patch tuning of apply_update. The default is exact
    // (budget 0): every update keeps the store bit-identical to a dirty-hub
    // recompute; opt into patching with QueryService::with_delta_config.
    delta: DeltaConfig,
    options: ServiceOptions,
    // Answers as asked for; a hit is the stored response (its scores
    // `Arc` shared) with this request's flags and latency.
    cache: EpochCache<CacheKey, Response>,
    // Mirror of the published graph's node count: recycled workspaces are
    // checked against it so an update that grew the graph retires the
    // now-undersized scratch at recycle time.
    current_nodes: AtomicUsize,
    // Serializes updates (publishers) against each other — never against
    // readers. Without it, two concurrent refreshes would both pin the
    // same old snapshot and the second publish would silently drop the
    // first update's work. It guards the refresher whose graph-sized push
    // scratch every update reuses.
    update_lock: Mutex<Refresher>,
    // Recycled per-worker scratch: graph-sized, so worth keeping across
    // batches instead of re-zeroing O(n) arrays every flush.
    workspaces: Mutex<Vec<QueryWorkspace>>,
    // In-flight count, p99 window and the overload policy (none by
    // default: always Normal; opt in with QueryService::with_overload).
    pub(crate) load: LoadTracker,
    // The snapshot a two-phase prepare built but has not committed yet
    // (shard mode). Committed or aborted under the update lock; serving
    // never reads it.
    staged: Mutex<Option<ServingState<S>>>,
    noop_skips: AtomicU64,
}

/// Shared range check of every serving path ([`QueryService::query`],
/// [`QueryService::process_batch`], and the network front-end): an
/// out-of-range id would otherwise surface as an opaque
/// index-out-of-bounds panic deep inside the engine. One owner for the
/// rule and the message; in-process paths panic via [`assert_servable`],
/// the wire path turns the `Err` into a per-request error response.
pub(crate) fn check_in_range(graph: &Graph, query: NodeId) -> Result<(), String> {
    let nodes = graph.num_nodes();
    if (query as usize) < nodes {
        Ok(())
    } else {
        Err(format!("query node {query} out of range ({nodes} nodes)"))
    }
}

/// Shared precondition of whole-query serving: a shard's store holds only
/// the prime PPVs of the hubs it owns, so a whole query would reach a hub
/// it cannot expand. The in-process paths panic with this message (via
/// [`assert_servable`]), the wire path answers each request with it.
pub(crate) fn check_whole_store<S: PpvStore>(state: &ServingState<S>) -> Result<(), String> {
    let (held, hubs) = (state.store.hub_count(), state.hubs.len());
    if held < hubs {
        return Err(format!(
            "this shard holds the prime PPVs of {held} of {hubs} hubs and \
             serves only scattered sub-requests: send whole queries to the router"
        ));
    }
    Ok(())
}

fn assert_servable<S: PpvStore>(state: &ServingState<S>, requests: &[Request]) {
    let checked = check_whole_store(state).and_then(|()| {
        requests
            .iter()
            .try_for_each(|r| check_in_range(&state.graph, r.query))
    });
    if let Err(e) = checked {
        panic!("{e}");
    }
}

impl<S: PpvStore + Send + Sync> QueryService<S> {
    /// Creates a service over a built deployment (epoch 0).
    pub fn new(
        graph: Arc<Graph>,
        hubs: Arc<HubSet>,
        store: Arc<S>,
        config: Config,
        options: ServiceOptions,
    ) -> Self {
        config.validate();
        options.validate();
        let nodes = graph.num_nodes();
        QueryService {
            state: ArcSwap::from_pointee(ServingState {
                graph,
                hubs,
                store,
                epoch: 0,
            }),
            config,
            delta: DeltaConfig::exact(),
            options,
            cache: EpochCache::new(options.cache_capacity),
            current_nodes: AtomicUsize::new(nodes),
            update_lock: Mutex::new(Refresher::new()),
            workspaces: Mutex::new(Vec::new()),
            load: LoadTracker::new(None),
            staged: Mutex::new(None),
            noop_skips: AtomicU64::new(0),
        }
    }

    /// Opts [`QueryService::apply_update`] into delta-patched refreshes
    /// with the given per-hub error budget configuration. The default is
    /// [`DeltaConfig::exact`] (budget 0): every dirty hub is recomputed
    /// and served answers carry no update-induced error at all.
    pub fn with_delta_config(mut self, delta: DeltaConfig) -> Self {
        delta.validate();
        self.delta = delta;
        self
    }

    /// The delta-patch configuration updates run with.
    pub fn delta_config(&self) -> &DeltaConfig {
        &self.delta
    }

    /// Opts the service into overload-aware serving: the load tracker's
    /// in-flight count and recent p99 drive the Normal / Degrade / Shed
    /// regimes described on [`OverloadOptions`]. Without this, the
    /// service always runs requests exactly as asked and
    /// [`QueryService::admission`] always admits.
    pub fn with_overload(mut self, overload: OverloadOptions) -> Self {
        self.load = LoadTracker::new(Some(overload));
        self
    }

    /// The regime the load tracker currently prescribes
    /// ([`LoadRegime::Normal`] when overload handling is not enabled).
    pub fn load_regime(&self) -> LoadRegime {
        self.load.regime()
    }

    /// One admission decision for a request about to enter the service.
    /// Callers that shed (the network front-end) should report it back
    /// via [`QueryService::note_shed`] so [`LoadStats`] stays honest.
    pub fn admission(&self) -> Admission {
        self.load.admission()
    }

    /// Records one shed decision taken by a front-end on this service's
    /// behalf.
    pub fn note_shed(&self) {
        self.load.note_shed();
    }

    /// A point-in-time picture of the load tracker: the live in-flight
    /// count and recent p99, with or without an overload policy.
    pub fn load_stats(&self) -> LoadStats {
        self.load.stats()
    }

    /// Pins the current serving snapshot (an `Arc` clone). The caller's
    /// view is immutable and survives any number of concurrent updates.
    pub fn snapshot(&self) -> Arc<ServingState<S>> {
        self.state.load_full()
    }

    /// Publishes `state` as the next snapshot. The answer cache advances to
    /// its epoch first, so an insert computed on the old snapshot is either
    /// cleared or rejected ([`EpochCache`]). Returns how many cache entries
    /// were dropped.
    fn publish(&self, state: ServingState<S>) -> usize {
        let dropped = self.cache.publish(state.epoch);
        self.current_nodes
            .store(state.graph.num_nodes(), Ordering::Relaxed);
        self.state.store(Arc::new(state));
        dropped
    }

    /// Pops a recycled workspace covering at least `nodes` slots (or
    /// allocates one). Recycled workspaces that are too small — possible
    /// after [`QueryService::apply_update`] grew the graph — are dropped.
    pub(crate) fn take_workspace(&self, nodes: usize) -> QueryWorkspace {
        loop {
            match self.workspaces.lock().pop() {
                Some(ws) if ws.capacity() >= nodes => return ws,
                Some(_) => continue,
                None => return QueryWorkspace::new(nodes),
            }
        }
    }

    /// Returns a workspace to the pool — unless it is undersized for the
    /// *currently published* graph (an update grew it mid-flight), in
    /// which case it is dropped here instead of being popped-and-dropped
    /// forever by [`QueryService::take_workspace`].
    pub(crate) fn recycle_workspace(&self, ws: QueryWorkspace) {
        if ws.capacity() < self.current_nodes.load(Ordering::Relaxed) {
            return;
        }
        let mut pool = self.workspaces.lock();
        if pool.len() < self.options.workers {
            pool.push(ws);
        }
    }

    /// The graph of the current snapshot.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.snapshot().graph)
    }

    /// The hub set of the current snapshot.
    pub fn hubs(&self) -> Arc<HubSet> {
        Arc::clone(&self.snapshot().hubs)
    }

    /// The PPV store of the current snapshot.
    pub fn store(&self) -> Arc<S> {
        Arc::clone(&self.snapshot().store)
    }

    /// The current epoch: 0 at creation, +1 per update or invalidation.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The service configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The sizing options.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// The answer cache's hit/miss/stale-reject counters, entries and
    /// entry bytes, with the count of no-op updates that kept it warm.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            noop_update_skips: self.noop_skips.load(Ordering::Relaxed),
            ..self.cache.stats()
        }
    }

    /// Whether an update batch changed nothing: the adjacency is unchanged
    /// at every claimed tail and the refresh neither recomputed nor
    /// rewrote any stored PPV (empty delta patches carry no budget spend
    /// on an unchanged graph). Publishing such a batch would evict the
    /// entire warm cache for nothing, so `apply_update` skips it.
    fn update_was_noop(
        &self,
        stats: &RefreshStats,
        old_graph: &Graph,
        new_graph: &Graph,
        changed_tails: &[NodeId],
    ) -> bool {
        stats.recomputed == 0
            && stats.delta_patched == stats.delta_noop
            && same_adjacency(old_graph, new_graph, changed_tails)
    }

    /// Drops every cached result, returning how many were evicted, and
    /// bumps the epoch (republishing the current snapshot) so in-flight
    /// results computed before the invalidation cannot be re-inserted.
    /// Call after any out-of-band change to the graph or store;
    /// [`QueryService::apply_update`] does it automatically.
    pub fn invalidate_cache(&self) -> usize {
        let _updates = self.update_lock.lock();
        let old = self.snapshot();
        // fppv-lint: allow(lock-across-io) -- update_lock exists to serialize publishers; readers never take it
        self.publish(ServingState {
            graph: Arc::clone(&old.graph),
            hubs: Arc::clone(&old.hubs),
            store: Arc::clone(&old.store),
            epoch: old.epoch + 1,
        })
    }

    /// Serves one request on the calling thread (no pool, no queue).
    pub fn query(&self, request: Request) -> Response {
        let state = self.snapshot();
        assert_servable(&state, &[request]);
        let _in_flight = self.load.enter(1);
        let engine = state.engine(self.config);
        let mut ws = self.take_workspace(state.graph.num_nodes());
        let response = self.execute(&engine, state.epoch, &mut ws, request, 0, None);
        self.recycle_workspace(ws);
        response
    }

    /// Serves a batch through the worker pool: `options.workers` scoped
    /// threads share one pinned snapshot (each with its own workspace) and
    /// drain a submission queue bounded at `options.queue_capacity`.
    /// Responses come back in request order. An update published while the
    /// batch is in flight does not disturb it — the whole batch answers on
    /// the snapshot pinned at entry.
    pub fn process_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let state = self.snapshot();
        // Validate against the same snapshot the batch will run on, before
        // spawning: an out-of-range id inside a worker would kill the pool
        // and surface as a misleading channel error.
        assert_servable(&state, &requests);
        let requests = requests.into_iter().map(|r| (r, 0)).collect();
        self.process_batch_on_cancel(&state, requests, None)
    }

    /// [`QueryService::process_batch`] against an explicitly pinned
    /// snapshot, for requests that each carry how many entries to answer
    /// with (0 = the whole vector, `k` = the `k` best; see
    /// [`Response::scores`]), and with an optional cancellation token:
    /// when the flag flips, requests stop at their next increment boundary
    /// and return partial answers with their current certified φ. The
    /// network front-end threads its shutdown flag through here so closing
    /// the server never waits on a long-running query. Callers must have
    /// checked [`check_whole_store`] and range-checked every request
    /// against `state`'s graph.
    pub(crate) fn process_batch_on_cancel(
        &self,
        state: &Arc<ServingState<S>>,
        requests: Vec<(Request, usize)>,
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> Vec<Response> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let _in_flight = self.load.enter(n);
        let nodes = state.graph.num_nodes();
        let engine = state.engine(self.config);
        let workers = self.options.workers.min(n);
        if workers == 1 {
            let mut ws = self.take_workspace(nodes);
            let responses = requests
                .into_iter()
                .map(|(r, k)| self.execute(&engine, state.epoch, &mut ws, r, k, cancel))
                .collect();
            self.recycle_workspace(ws);
            return responses;
        }
        let (job_tx, job_rx) =
            mpsc::sync_channel::<(usize, (Request, usize))>(self.options.queue_capacity);
        let job_rx = Mutex::new(job_rx);
        let slots: Vec<Mutex<Option<Response>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ws = self.take_workspace(nodes);
                    loop {
                        // Hold the receiver lock only for the dequeue, not
                        // for the query execution.
                        // fppv-lint: allow(lock-across-io) -- the lock IS the handoff: workers take turns blocking on the shared receiver
                        let job = job_rx.lock().recv();
                        let Ok((i, (r, k))) = job else { break };
                        *slots[i].lock() =
                            Some(self.execute(&engine, state.epoch, &mut ws, r, k, cancel));
                    }
                    self.recycle_workspace(ws);
                });
            }
            for job in requests.into_iter().enumerate() {
                // Blocks when the queue is full: bounded submission is the
                // backpressure mechanism. Workers only stop once the sender
                // is dropped, so this cannot fail.
                job_tx.send(job).expect("worker pool hung up early");
            }
            drop(job_tx);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every request is answered"))
            .collect()
    }

    /// A request is cacheable when its result is a pure function of
    /// `(query, η)`: an iteration-only stop and no deadline. The key adds
    /// how many entries were asked for.
    fn cache_key(&self, request: &Request, top_k: usize) -> Option<CacheKey> {
        if self.options.cache_capacity == 0 || request.deadline.is_some() {
            return None;
        }
        match request.stop {
            StoppingCondition {
                max_iterations: Some(eta),
                l1_target: None,
                time_limit: None,
            } => Some((request.query, eta as u64, top_k)),
            _ => None,
        }
    }

    fn execute(
        &self,
        engine: &QueryEngine<'_, S>,
        epoch: u64,
        ws: &mut QueryWorkspace,
        mut request: Request,
        top_k: usize,
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> Response {
        let started = Instant::now();
        // The degrade cap is applied *before* the cache key is derived, so
        // a degraded iteration request caches (and hits) under its capped
        // η — identical requests in the same regime share one entry.
        let degraded = self.load.degrade(&mut request.stop);
        let key = self.cache_key(&request, top_k);
        // Snapshot isolation: only an entry computed against the *same*
        // epoch this request pinned is a hit. A newer entry (a racing
        // update published mid-batch) would be a perfectly fresh answer —
        // but it would let one pooled batch mix snapshots, and the
        // contract is that a batch answers entirely on the state it
        // pinned at entry.
        let mut response = match key.and_then(|k| self.cache.get(&k, epoch)) {
            Some(hit) => Response {
                cached: true,
                ..hit
            },
            None => {
                let mut stop = request.stop;
                if let Some(deadline) = request.deadline {
                    // Queue wait counts against the deadline: the limit is
                    // whatever time remains *now*, clamped below any
                    // explicit time limit.
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    stop.time_limit = Some(stop.time_limit.map_or(remaining, |l| l.min(remaining)));
                }
                let result = engine.query_with_cancel(ws, request.query, &stop, top_k, cancel);
                let response = Response {
                    query: request.query,
                    scores: Arc::new(result.scores),
                    l1_error: result.l1_error,
                    iterations: result.iterations,
                    exhausted: result.exhausted,
                    cached: false,
                    degraded,
                    latency: Duration::ZERO,
                };
                // Only an answer that ran its η rounds (or exhausted the
                // frontier first) is what its key promises: one cut short
                // by cancellation is served, never cached.
                if let Some(k) = key
                    .filter(|&(_, eta, _)| response.exhausted || response.iterations as u64 == eta)
                {
                    self.cache.insert(k, epoch, response.clone());
                }
                response
            }
        };
        response.degraded = degraded;
        response.latency = started.elapsed();
        self.load.record(response.latency);
        response
    }
}

impl QueryService<FlatIndex> {
    /// Builds the next epoch's arena off the pinned snapshot `old` without
    /// publishing it ([`Refresher::refresh`], on the refresher the update
    /// lock guards, so its push scratch stays warm). The arena is
    /// cloned and patched copy-on-write at *chunk* granularity: the clone
    /// Arc-shares every chunk with the old snapshot (O(chunks) pointer
    /// copies, no entry data moved), and the patch seals shared chunks
    /// before appending, so readers pinning the old snapshot keep the
    /// pre-update arena bit-identical for as long as they hold it. The
    /// refresh covers exactly the hubs the arena holds, so a shard's slice
    /// stays a slice. [`RefreshStats::cloned_bytes`] reports the bytes
    /// actually copied (the directory, and what the seal compacted: one
    /// chunk's worth plus the update's tombstones over the threshold);
    /// [`RefreshStats::resident_bytes`] and
    /// [`RefreshStats::mapped_bytes`] report the new arena's footprint.
    fn refresh(
        &self,
        refresher: &mut Refresher,
        old: &ServingState<FlatIndex>,
        new_graph: &Graph,
        changed_tails: &[NodeId],
    ) -> (FlatIndex, RefreshStats) {
        refresher.refresh(
            &old.store,
            &old.graph,
            new_graph,
            &old.hubs,
            changed_tails,
            &self.config,
            &self.delta,
        )
    }

    /// Applies a graph update **concurrently with serving**: pins the
    /// current snapshot, refreshes only the prime PPVs whose prime
    /// subgraphs the changed edges touch ([`fastppv_core::dynamic`])
    /// against that pinned state, then publishes a new snapshot with a
    /// bumped epoch and clears the hot-PPV cache. In-flight queries keep
    /// answering on the old snapshot until they finish.
    ///
    /// `changed_tails` are the source nodes of every inserted or deleted
    /// edge (both endpoints for undirected edits). Concurrent updates
    /// serialize against each other (never against readers).
    ///
    /// Dirty hubs are patched by delta propagation when
    /// [`QueryService::with_delta_config`] enabled a budget (recomputed
    /// exactly otherwise), and a batch that changed nothing is *not*
    /// published at all — the epoch stays put and the warm cache survives
    /// ([`CacheStats::noop_update_skips`]).
    pub fn apply_update(&self, new_graph: Graph, changed_tails: &[NodeId]) -> RefreshStats {
        let mut refresher = self.update_lock.lock();
        let old = self.snapshot();
        let (store, stats) = self.refresh(&mut refresher, &old, &new_graph, changed_tails);
        if self.update_was_noop(&stats, &old.graph, &new_graph, changed_tails) {
            self.noop_skips.fetch_add(1, Ordering::Relaxed);
            return stats;
        }
        // fppv-lint: allow(lock-across-io) -- update_lock exists to serialize publishers; readers never take it
        self.publish(ServingState {
            graph: Arc::new(new_graph),
            hubs: Arc::clone(&old.hubs),
            store: Arc::new(store),
            epoch: old.epoch + 1,
        });
        stats
    }

    /// Phase one of a coordinated cluster update: refresh the store
    /// against `new_graph` and stage the resulting snapshot at
    /// `target_epoch` **without publishing it**. Serving continues on the
    /// current snapshot; a later [`QueryService::commit_update`] flips the
    /// cluster to the staged version, [`QueryService::abort_update`]
    /// discards it. Re-preparing replaces any previously staged snapshot.
    ///
    /// Unlike [`QueryService::apply_update`] there is no no-op skip: the
    /// coordinator bumps every shard to `target_epoch` in lockstep, and a
    /// shard whose slice happened to be untouched must still advance or
    /// the cluster's epochs diverge and every scattered query is answered
    /// [`crate::net::SubReply::EpochSkew`].
    pub fn prepare_update(
        &self,
        target_epoch: u64,
        new_graph: Graph,
        changed_tails: &[NodeId],
    ) -> Result<RefreshStats, String> {
        let mut refresher = self.update_lock.lock();
        let old = self.snapshot();
        if target_epoch != old.epoch + 1 {
            return Err(format!(
                "prepare for epoch {target_epoch} but serving epoch {} (want {})",
                old.epoch,
                old.epoch + 1
            ));
        }
        let (store, stats) = self.refresh(&mut refresher, &old, &new_graph, changed_tails);
        *self.staged.lock() = Some(ServingState {
            graph: Arc::new(new_graph),
            hubs: Arc::clone(&old.hubs),
            store: Arc::new(store),
            epoch: target_epoch,
        });
        Ok(stats)
    }

    /// Phase two: publish the snapshot staged for `target_epoch`. Fails —
    /// leaving serving untouched — if nothing is staged, the staged epoch
    /// does not match, or an update published in between made the staged
    /// snapshot stale.
    pub fn commit_update(&self, target_epoch: u64) -> Result<(), String> {
        let _updates = self.update_lock.lock();
        let mut staged = self.staged.lock();
        let ready = staged
            .take()
            .ok_or_else(|| format!("no staged update to commit at epoch {target_epoch}"))?;
        if ready.epoch != target_epoch {
            let have = ready.epoch;
            *staged = Some(ready);
            return Err(format!(
                "staged epoch {have} does not match commit target {target_epoch}"
            ));
        }
        drop(staged);
        let current = self.epoch();
        if target_epoch != current + 1 {
            return Err(format!(
                "staged epoch {target_epoch} is stale (serving epoch {current})"
            ));
        }
        // fppv-lint: allow(lock-across-io) -- update_lock exists to serialize publishers; readers never take it
        self.publish(ready);
        Ok(())
    }

    /// Discards any staged snapshot, returning whether one existed.
    pub fn abort_update(&self) -> bool {
        let _updates = self.update_lock.lock();
        self.staged.lock().take().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastppv_core::offline::build_index;
    use fastppv_core::HubSet;
    use fastppv_graph::toy;
    use fastppv_graph::GraphBuilder;

    fn toy_service(options: ServiceOptions) -> QueryService<FlatIndex> {
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let config = Config::exhaustive();
        let (index, _) = build_index(&g, &hubs, &config);
        QueryService::new(
            Arc::new(g),
            Arc::new(hubs),
            Arc::new(index),
            config,
            options,
        )
    }

    #[test]
    fn latency_summary_matches_percentiles() {
        let ms = |v: u64| Duration::from_millis(v);
        let sample = vec![ms(9), ms(1), ms(5), ms(3), ms(7)];
        let mut sample = sample;
        let s = LatencySummary::of_mut(&mut sample);
        assert_eq!(s.queries, 5);
        assert_eq!(s.p50, ms(5));
        assert_eq!(s.p99, ms(9));
        // of_mut sorts in place once, so later quantiles slice the sample.
        assert!(sample.windows(2).all(|w| w[0] <= w[1]));
        let empty = LatencySummary::of_mut(&mut []);
        assert_eq!((empty.queries, empty.p50, empty.p99), (0, ms(0), ms(0)));
    }

    #[test]
    fn sorted_pair_percentile_matches_merged_sample() {
        let ms = |v: u64| Duration::from_millis(v);
        let a: Vec<Duration> = [1u64, 4, 9, 12].into_iter().map(ms).collect();
        let b: Vec<Duration> = [2u64, 3, 5, 20, 21].into_iter().map(ms).collect();
        let mut merged = a.clone();
        merged.extend_from_slice(&b);
        merged.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                percentile_of_sorted_pair(&a, &b, p),
                percentile_of_sorted(&merged, p),
                "p = {p}"
            );
        }
        // Degenerate shapes: one side empty, both empty.
        assert_eq!(
            percentile_of_sorted_pair(&a, &[], 0.5),
            percentile_of_sorted(&a, 0.5)
        );
        assert_eq!(
            percentile_of_sorted_pair(&[], &b, 0.5),
            percentile_of_sorted(&b, 0.5)
        );
        assert_eq!(percentile_of_sorted_pair(&[], &[], 0.5), Duration::ZERO);
    }

    #[test]
    fn batch_matches_direct_engine() {
        let service = toy_service(ServiceOptions {
            workers: 4,
            queue_capacity: 2,
            cache_capacity: 0,
        });
        let requests: Vec<Request> = (0..8u32)
            .cycle()
            .take(32)
            .map(|q| Request::iterations(q, 3))
            .collect();
        let responses = service.process_batch(requests.clone());
        assert_eq!(responses.len(), 32);
        let state = service.snapshot();
        let engine = state.engine(*service.config());
        for (req, resp) in requests.iter().zip(&responses) {
            assert_eq!(resp.query, req.query, "responses keep request order");
            let direct = engine.query(req.query, &req.stop);
            assert_eq!(*resp.scores, direct.scores);
            assert_eq!(resp.iterations, direct.iterations);
            assert!((resp.l1_error - direct.l1_error).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_query_path_rejects_out_of_range_node() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
        });
        // The toy graph has 8 nodes; node 8 must fail the shared range
        // check with a named-node panic, not an opaque slice index.
        service.query(Request::iterations(8, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_path_rejects_out_of_range_node() {
        let service = toy_service(ServiceOptions {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 0,
        });
        service.process_batch(vec![Request::iterations(0, 2), Request::iterations(99, 2)]);
    }

    #[test]
    fn cache_hits_are_identical_and_flagged() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        let first = service.query(Request::iterations(toy::A, 2));
        assert!(!first.cached);
        let second = service.query(Request::iterations(toy::A, 2));
        assert!(second.cached, "repeat (query, eta) must hit the cache");
        assert!(Arc::ptr_eq(&first.scores, &second.scores));
        assert_eq!(second.l1_error, first.l1_error);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Different eta is a different key.
        let third = service.query(Request::iterations(toy::A, 3));
        assert!(!third.cached);
    }

    #[test]
    fn a_cancelled_answer_is_not_cached_as_its_eta_answer() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        let cancelled = std::sync::atomic::AtomicBool::new(true);
        let request = Request::iterations(toy::A, 3);
        let partial = service.process_batch_on_cancel(
            &service.snapshot(),
            vec![(request, 0)],
            Some(&cancelled),
        );
        assert_eq!(partial[0].iterations, 0, "the set flag stops every round");
        assert!(!partial[0].exhausted);
        let full = service.query(request);
        assert!(!full.cached, "a cut-short answer stood in for η = 3");
        assert!(full.iterations == 3 || full.exhausted);
        assert!(full.l1_error < partial[0].l1_error);
        assert!(
            service.query(request).cached,
            "the complete answer is cached"
        );
    }

    #[test]
    fn non_deterministic_requests_bypass_cache() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        for _ in 0..2 {
            let r = service.query(
                Request::iterations(toy::A, 1)
                    .with_deadline(Instant::now() + Duration::from_secs(5)),
            );
            assert!(!r.cached);
        }
        let l1 = service.query(Request::l1_error(toy::A, 0.05));
        assert!(!l1.cached);
        assert_eq!(service.cache_stats().entries, 0);
    }

    #[test]
    fn expired_deadline_stops_at_iteration_zero() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        });
        let r = service.query(
            Request {
                query: toy::A,
                stop: StoppingCondition::iterations(50),
                deadline: None,
            }
            .with_deadline(Instant::now() - Duration::from_millis(1)),
        );
        assert_eq!(r.iterations, 0, "an expired deadline must stop immediately");
    }

    #[test]
    fn tiny_queue_still_serves_large_batch() {
        let service = toy_service(ServiceOptions {
            workers: 3,
            queue_capacity: 1,
            cache_capacity: 0,
        });
        let requests: Vec<Request> = (0..8u32)
            .cycle()
            .take(100)
            .map(|q| Request::iterations(q, 2))
            .collect();
        let responses = service.process_batch(requests);
        assert_eq!(responses.len(), 100);
        assert!(responses.iter().all(|r| r.l1_error < 1.0));
    }

    #[test]
    fn empty_batch_is_fine() {
        let service = toy_service(ServiceOptions::default());
        assert!(service.process_batch(Vec::new()).is_empty());
    }

    #[test]
    fn apply_update_invalidates_and_refreshes() {
        let service = toy_service(ServiceOptions {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        let stale = service.query(Request::iterations(toy::A, 4));
        assert_eq!(service.cache_stats().entries, 1);
        assert_eq!(service.epoch(), 0);

        // Add an edge a -> e: a's PPV must change.
        let old = service.graph();
        let mut b = GraphBuilder::new(8);
        for (s, t) in old.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(toy::A, toy::E);
        let stats = service.apply_update(b.build(), &[toy::A]);
        assert!(stats.recomputed + stats.reused > 0);
        assert_eq!(service.epoch(), 1, "an update bumps the epoch");
        assert_eq!(
            service.cache_stats().entries,
            0,
            "update must clear the cache"
        );
        let expanded = service
            .expand(&[(toy::PAPER_HUBS[0], 0.125)], None)
            .ok()
            .expect("expand of a stored hub");
        assert_eq!(expanded.epoch, 1, "a sub-request answers on the new epoch");

        let fresh = service.query(Request::iterations(toy::A, 4));
        assert!(!fresh.cached);
        // The new result reflects the new graph, not the stale cache: the
        // fresh estimate must put mass on e (now a direct out-neighbor).
        assert!(fresh.scores.get(toy::E) > stale.scores.get(toy::E));
    }

    #[test]
    fn apply_update_keeps_a_sliced_store_sliced() {
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let config = Config::exhaustive();
        let (full, _) = build_index(&g, &hubs, &config);
        // A shard's slice: one of the three hubs, under the full hub set.
        let owned = toy::PAPER_HUBS[0];
        let mut slice = FlatIndex::new(8);
        slice.insert_from(&full, owned, &hubs);
        let mut b = GraphBuilder::new(8);
        for (s, t) in g.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(toy::A, toy::E);
        let service = QueryService::new(
            Arc::new(g),
            Arc::new(hubs),
            Arc::new(slice),
            config,
            ServiceOptions::default(),
        );
        service.apply_update(b.build(), &[toy::A]);
        assert_eq!(service.epoch(), 1);
        assert_eq!(
            service.store().hub_ids(),
            &[owned],
            "a local update must not recompute the hubs other shards own"
        );
    }

    #[test]
    fn noop_update_skips_publish_and_keeps_cache() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        service.query(Request::iterations(toy::A, 4));
        assert_eq!(service.cache_stats().entries, 1);
        // Replaying the same graph with no affected hubs changes nothing:
        // the publish (and the cache eviction) must be skipped.
        let stats = service.apply_update(toy::graph(), &[]);
        assert_eq!(stats.dirty(), 0);
        assert_eq!(service.epoch(), 0, "no-op update must not bump the epoch");
        assert_eq!(service.cache_stats().entries, 1, "warm cache survives");
        assert_eq!(service.cache_stats().noop_update_skips, 1);
        // A genuine update still publishes and evicts.
        let old = service.graph();
        let mut b = GraphBuilder::new(8);
        for (s, t) in old.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(toy::A, toy::E);
        service.apply_update(b.build(), &[toy::A]);
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.cache_stats().entries, 0);
        assert_eq!(service.cache_stats().noop_update_skips, 1);
    }

    #[test]
    fn delta_service_skips_vacuous_batches_with_tails() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        })
        .with_delta_config(DeltaConfig::default());
        service.query(Request::iterations(toy::A, 4));
        // A hub tail is listed, but its row is unchanged: no hub's stored
        // state sees the batch, nothing is patched, and nothing publishes.
        let h = service.hubs().ids()[0];
        let stats = service.apply_update(toy::graph(), &[h]);
        assert_eq!(stats.delta_patched, 0);
        assert_eq!(stats.recomputed, 0);
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.cache_stats().entries, 1);
        assert_eq!(service.cache_stats().noop_update_skips, 1);
    }

    #[test]
    fn in_flight_snapshot_survives_update() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        });
        // Pin the pre-update snapshot, as a worker mid-request would.
        let pinned = service.snapshot();
        let before = pinned
            .engine(*service.config())
            .query(toy::A, &StoppingCondition::iterations(4));

        let old = service.graph();
        let mut b = GraphBuilder::new(8);
        for (s, t) in old.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(toy::A, toy::E);
        service.apply_update(b.build(), &[toy::A]);

        // The pinned snapshot still answers exactly as before the update.
        let after = pinned
            .engine(*service.config())
            .query(toy::A, &StoppingCondition::iterations(4));
        assert_eq!(before.scores, after.scores);
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(service.snapshot().epoch(), 1);
    }

    #[test]
    fn stale_epoch_insert_is_rejected() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        // Simulate the race: a worker computed a result against epoch 0,
        // but the update (epoch 1, cache cleared) lands before its insert.
        let key = service
            .cache_key(&Request::iterations(toy::A, 2), 0)
            .expect("iteration stop is cacheable");
        let entry = Response {
            query: toy::A,
            scores: Arc::new(SparseVector::default()),
            l1_error: 0.0,
            iterations: 2,
            exhausted: false,
            cached: false,
            degraded: false,
            latency: Duration::ZERO,
        };
        service.invalidate_cache(); // epoch 0 -> 1
        service.cache.insert(key, 0, entry.clone());
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 0, "stale insert must be rejected");
        assert_eq!(stats.stale_rejects, 1);
        // A current-epoch insert is accepted.
        service.cache.insert(key, service.epoch(), entry);
        assert_eq!(service.cache_stats().entries, 1);
    }

    #[test]
    fn invalidate_cache_bumps_epoch() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        service.query(Request::iterations(toy::A, 2));
        assert_eq!(service.cache_stats().entries, 1);
        assert_eq!(service.invalidate_cache(), 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.cache_stats().entries, 0);
    }

    #[test]
    fn flat_service_matches_memory_service_and_updates() {
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let config = Config::exhaustive();
        let (flat, _) = build_index(&g, &hubs, &config);
        let options = ServiceOptions {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 16,
        };
        // The pooled service answers exactly what the in-memory engine
        // over the same arena does.
        let engine = QueryEngine::new(&g, &hubs, &flat, config);
        let want: Vec<SparseVector> = (0..8u32)
            .map(|q| engine.query(q, &StoppingCondition::iterations(3)).scores)
            .collect();
        let flat_service =
            QueryService::new(Arc::new(g), Arc::new(hubs), Arc::new(flat), config, options);
        for (q, want) in (0..8u32).zip(&want) {
            let got = flat_service.query(Request::iterations(q, 3));
            assert_eq!(*got.scores, *want, "query {q}");
        }
        // A flat deployment takes updates too: patch a clone, publish it,
        // and reflect the edit — while a pinned pre-update snapshot keeps
        // the old arena.
        let pinned = flat_service.snapshot();
        let before = pinned
            .engine(config)
            .query(toy::A, &StoppingCondition::iterations(4));
        let old = flat_service.graph();
        let mut b = GraphBuilder::new(8);
        for (s, t) in old.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(toy::A, toy::E);
        let stats = flat_service.apply_update(b.build(), &[toy::A]);
        assert!(stats.recomputed + stats.reused > 0);
        assert_eq!(flat_service.cache_stats().entries, 0);
        // The refresh reports the published arena's memory footprint; the
        // toy arena is heap-built, so nothing is file-mapped.
        assert!(stats.resident_bytes > 0);
        assert_eq!(stats.mapped_bytes, 0);
        let fresh = flat_service.query(Request::iterations(toy::A, 4));
        // The inserted direct edge a -> e must raise a's mass on e.
        assert!(fresh.scores.get(toy::E) > before.scores.get(toy::E));
        // Copy-on-write: the pinned snapshot's arena is a different
        // allocation now and still answers exactly as pre-update.
        assert!(!Arc::ptr_eq(pinned.store(), &flat_service.store()));
        let pre = pinned
            .engine(config)
            .query(toy::A, &StoppingCondition::iterations(4));
        assert_eq!(pre.scores, before.scores, "pinned arena is pre-update");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        toy_service(ServiceOptions {
            workers: 0,
            queue_capacity: 1,
            cache_capacity: 0,
        });
    }

    fn overloadable_service(overload: OverloadOptions) -> QueryService<FlatIndex> {
        toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        })
        .with_overload(overload)
    }

    #[test]
    fn regimes_follow_in_flight_watermarks() {
        let service = overloadable_service(OverloadOptions {
            degrade_in_flight: 2,
            shed_in_flight: 4,
            ..OverloadOptions::default()
        });
        assert_eq!(service.load_regime(), LoadRegime::Normal);
        assert_eq!(service.admission(), Admission::Admit { degraded: false });
        let _one = service.load.enter(1);
        assert_eq!(service.load_regime(), LoadRegime::Normal);
        {
            let _two = service.load.enter(1);
            assert_eq!(service.load_regime(), LoadRegime::Degrade);
            assert_eq!(service.admission(), Admission::Admit { degraded: true });
            let _more = service.load.enter(2);
            assert_eq!(service.load_regime(), LoadRegime::Shed);
            match service.admission() {
                Admission::Shed { retry_after } => {
                    assert!(retry_after > Duration::ZERO, "retry hint must be positive")
                }
                other => panic!("expected shed, got {other:?}"),
            }
            service.note_shed();
        }
        // Guards dropped: back below the degrade watermark.
        assert_eq!(service.load_regime(), LoadRegime::Normal);
        let stats = service.load_stats();
        assert_eq!(stats.in_flight, 1);
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn degraded_request_is_capped_flagged_and_still_certified() {
        let service = overloadable_service(OverloadOptions {
            degrade_in_flight: 2,
            shed_in_flight: 100,
            degraded_max_iterations: 0,
            ..OverloadOptions::default()
        });
        // Hold one slot: the next request's own in-flight entry reaches
        // the watermark, so it executes in Degrade.
        let _held = service.load.enter(1);
        let r = service.query(Request::iterations(toy::A, 8));
        assert!(r.degraded, "degrade cap must be flagged");
        assert_eq!(r.iterations, 0, "capped at degraded_max_iterations");
        // φ of the degraded answer is still a true bound.
        let exact = fastppv_baselines::exact_ppv(
            &service.graph(),
            toy::A,
            fastppv_baselines::ExactOptions::default(),
        );
        let true_gap: f64 = service
            .graph()
            .nodes()
            .map(|v| exact[v as usize] - r.scores.get(v))
            .sum();
        assert!(
            true_gap <= r.l1_error + 1e-9,
            "degraded φ {} must bound the true gap {true_gap}",
            r.l1_error
        );
        assert_eq!(service.load_stats().degraded, 1);
        // Below the watermark the same request runs at full accuracy.
        drop(_held);
        let full = service.query(Request::iterations(toy::A, 8));
        assert!(!full.degraded);
        assert!(full.iterations > 0);
        assert!(full.l1_error <= r.l1_error + 1e-15);
    }

    #[test]
    fn p99_above_deadline_target_degrades() {
        let service = overloadable_service(OverloadOptions {
            degrade_in_flight: 1000,
            shed_in_flight: 1000,
            deadline_p99: Some(Duration::from_nanos(1)),
            ..OverloadOptions::default()
        });
        assert_eq!(
            service.load_regime(),
            LoadRegime::Normal,
            "no samples yet: p99 is zero"
        );
        // Any real served latency exceeds a 1ns target.
        service.query(Request::iterations(toy::A, 3));
        assert_eq!(service.load_regime(), LoadRegime::Degrade);
        assert!(service.load_stats().recent_p99 > Duration::from_nanos(1));
    }

    #[test]
    fn without_overload_policy_nothing_changes() {
        let service = toy_service(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        });
        assert_eq!(service.load_regime(), LoadRegime::Normal);
        assert_eq!(service.admission(), Admission::Admit { degraded: false });
        assert_eq!(service.load_stats().recent_p99, Duration::ZERO);
        let r = service.query(Request::iterations(toy::A, 4));
        assert!(!r.degraded);
        // No policy still keeps the ledger: the served request left the
        // in-flight count and landed in the p99 window.
        let stats = service.load_stats();
        assert_eq!((stats.in_flight, stats.degraded, stats.shed), (0, 0, 0));
        assert!(stats.recent_p99 > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "retry_after must be positive")]
    fn rejects_zero_retry_after() {
        overloadable_service(OverloadOptions {
            retry_after: Duration::ZERO,
            ..OverloadOptions::default()
        });
    }
}
