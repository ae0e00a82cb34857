//! Online query processing (paper §5.2, Algorithm 2).
//!
//! Iteration 0 produces the prime PPV of the query (loaded from the index
//! when the query is a hub, computed on the fly otherwise). Iteration `i`
//! is the tour partition `T^i`, a combination of the stored prime PPVs of
//! the previous increment's border hubs (Theorem 4):
//!
//! ```text
//! r̂ⁱ_q = (1/α) · Σ_{h hub, r̂ⁱ⁻¹_q(h) > δ}  r̂ⁱ⁻¹_q(h) · r̊⁰_h
//! ```
//!
//! After every iteration the L1 error of the running estimate is exactly
//! `φ(k) = 1 − ‖r̂_q^(k)‖₁` (Eq. 6) — no exact PPV needed — which powers the
//! accuracy-aware [`StoppingCondition`].
//!
//! ## Two kernels: advance every round, assemble once
//!
//! Theorem 4's recursion reads only the *hub coordinates* of the previous
//! increment, and Eq. 6 only its mass — `(r̂ⁱ⁻¹_q(h)/α) · ‖r̊⁰_h‖₁` per
//! expanded hub, with the norm a per-hub constant of the store
//! ([`PpvStore::stored_norm`]). So a round does not need the increment
//! itself, and the loop is split into the two kernels it is made of:
//!
//! * **advance** (every round, [`IncrementalState::step`]): per frontier
//!   hub above `δ`, add its coefficient `r̂ⁱ⁻¹_q(h)/α` to a per-hub
//!   *pending* accumulator, add coefficient × norm to the covered mass, and
//!   build the next frontier from the hub's border sublist. No stored entry
//!   is scanned; a round costs the sum of the border-list lengths.
//! * **assemble** (once, [`IncrementScratch::assemble`]): one pass in
//!   ascending hub id, `estimate += pending[h] · r̊⁰_h` for every hub with
//!   a pending coefficient. However many rounds ran, a stored PPV is
//!   scanned at most once per query, and the scan carries no reduction.
//!
//! The estimate is the same sum over the same tours — `Σᵢ (cᵢ·s)` became
//! `(Σᵢ cᵢ)·s`, equal up to floating-point reassociation — and every
//! round's `φ`, `hubs_expanded` and frontier are what they were, so `η`,
//! `φ` and deadline stops decide exactly as before. Everything that reads
//! the estimate ([`QuerySession::estimate`], [`QuerySession::top_k`],
//! [`QuerySession::certified_top_k`], [`QuerySession::into_result`])
//! assembles first. The clock is checked between rounds, so
//! [`IterationStats::elapsed`] and a [`StoppingCondition::time_limit`] see
//! the rounds only: a deadline is overshot by at most the one assemble
//! pass, which [`QueryResult::elapsed`] includes. [`ScanWork`] counts what
//! the pass scanned — the regression guard that reads no clock.
//!
//! [`expand_frontier`], the shard side of a scattered round, is the same
//! two kernels back to back over one frontier sublist.
//!
//! ## The allocation-free hot path
//!
//! The increment loop never materializes intermediate sparse vectors: the
//! running estimate lives in a dense [`ScoreScratch`] inside the
//! [`IncrementScratch`], stored PPVs are accumulated straight into it from
//! borrowed store views ([`PpvRef`]), the pending coefficients and the
//! frontier of border hubs are tracked in two more dense scratches and
//! drained into reused buffers, and the covered mass `‖r̂‖₁` is maintained
//! incrementally. The sorted sparse estimate is materialized exactly once,
//! in [`IncrementalState::into_result`] — whole, or as only the `k` best
//! entries when the caller asked for a top-`k` answer, so a ten-node
//! answer never allocates the vector it is chosen from. Every drain comes
//! out in node-id order ([`ScoreScratch`] owns that order), so nothing
//! here sorts the pending hubs, the frontier or the answer. On a warmed-up
//! workspace over a [`crate::index::FlatIndex`], neither [`IncrementalState::step`] nor the
//! assemble pass performs any heap allocation (the per-iteration stats
//! vector is preallocated for 16 iterations and only reallocates —
//! amortized — beyond that).
//! Cold **non-hub** queries are allocation-free too: iteration 0 runs the
//! fused [`PrimeComputer::prime_ppv_into`] search+solve on the graph's own
//! CSR, in the workspace's reused scratch, and is consumed as a borrowed
//! slice, so no per-query prime subgraph or PPV is ever materialized. That solve is the
//! kernel's *query-time* family: it leaves up to `δ` of residual un-pushed
//! (see [`crate::prime`]), which `φ` reports like any other uncovered mass.

use std::time::{Duration, Instant};

use fastppv_graph::{Graph, NodeId, ScoreScratch, SparseVector};

use crate::config::Config;
use crate::hubs::HubSet;
use crate::index::{PpvRef, PpvStore};
use crate::prime::PrimeComputer;

/// When to stop the incremental iterations. Conditions combine with OR: the
/// session stops as soon as *any* of them is met (or when no border hub
/// clears `δ`, at which point the estimate cannot improve further).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoppingCondition {
    /// Stop after this many increments beyond iteration 0 (the paper's `η`).
    pub max_iterations: Option<usize>,
    /// Stop once the accuracy-aware L1 error `φ` falls below this.
    pub l1_target: Option<f64>,
    /// Stop once this much wall-clock time has elapsed.
    pub time_limit: Option<Duration>,
}

impl StoppingCondition {
    /// Run exactly `eta` increments (paper's "number of iterations η").
    pub fn iterations(eta: usize) -> Self {
        StoppingCondition {
            max_iterations: Some(eta),
            ..Default::default()
        }
    }

    /// Run until `φ ≤ target`.
    pub fn l1_error(target: f64) -> Self {
        StoppingCondition {
            l1_target: Some(target),
            ..Default::default()
        }
    }

    /// Run until the time limit expires.
    pub fn time_limit(limit: Duration) -> Self {
        StoppingCondition {
            time_limit: Some(limit),
            ..Default::default()
        }
    }

    /// Adds an iteration cap to an existing condition.
    pub fn or_iterations(mut self, eta: usize) -> Self {
        self.max_iterations = Some(eta);
        self
    }

    /// Adds an L1 target to an existing condition.
    pub fn or_l1_error(mut self, target: f64) -> Self {
        self.l1_target = Some(target);
        self
    }

    /// Adds a time limit to an existing condition.
    pub fn or_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Whether a run that has done `iterations_done` increments, with
    /// certified error `l1_error` after `elapsed`, should stop: any
    /// satisfied limit stops, and a condition with no limit at all means
    /// "iteration 0 only". The scatter/gather router stops on it too.
    pub fn met(&self, iterations_done: usize, l1_error: f64, elapsed: Duration) -> bool {
        if self.max_iterations.is_some_and(|k| iterations_done >= k) {
            return true;
        }
        if self.l1_target.is_some_and(|t| l1_error <= t) {
            return true;
        }
        if self.time_limit.is_some_and(|l| elapsed >= l) {
            return true;
        }
        // No condition at all means "run iteration 0 only".
        self.max_iterations.is_none() && self.l1_target.is_none() && self.time_limit.is_none()
    }
}

/// Per-iteration diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct IterationStats {
    /// Iteration index (0 = the query's own prime PPV).
    pub iteration: usize,
    /// Mass added by this iteration's increment.
    pub increment_mass: f64,
    /// Border hubs expanded to build the increment (0 for iteration 0).
    pub hubs_expanded: usize,
    /// Accuracy-aware L1 error `φ` after this iteration.
    pub l1_error_after: f64,
    /// Cumulative wall-clock time when this iteration's round finished
    /// (the assemble pass that folds the rounds into the estimate runs
    /// later and is counted by [`QueryResult::elapsed`] only).
    pub elapsed: Duration,
}

/// The outcome of a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The query node.
    pub query: NodeId,
    /// The PPV estimate (entry-wise lower bound on the exact PPV), in
    /// ascending node id: the whole estimate, or only its `k` best entries
    /// when the query was finished as a top-`k` answer
    /// ([`QuerySession::finish`]).
    pub scores: SparseVector,
    /// Increments computed beyond iteration 0.
    pub iterations: usize,
    /// Accuracy-aware L1 error `φ` of the estimate (Eq. 6).
    pub l1_error: f64,
    /// Total wall-clock time: iteration 0, the rounds and the assemble pass.
    pub elapsed: Duration,
    /// Whether the expansion frontier emptied (estimate is as exact as the
    /// configuration's `ε`/`δ`/clip truncations allow).
    pub exhausted: bool,
    /// Per-iteration diagnostics.
    pub iteration_stats: Vec<IterationStats>,
}

impl QueryResult {
    /// Top-`k` nodes by estimated score.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        self.scores.top_k(k)
    }
}

/// Result of a certified top-`k` query ([`QueryEngine::query_top_k`]).
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// The top-`k` nodes by estimated score, descending.
    pub nodes: Vec<(NodeId, f64)>,
    /// Whether the set is provably the exact top-`k`.
    pub certified: bool,
    /// Increments run.
    pub iterations: usize,
    /// Accuracy-aware L1 error when the query stopped.
    pub l1_error: f64,
}

/// What the assemble passes of one query (or one [`expand_frontier`] call)
/// scanned — counted by the product, so a test can hold "at most one scan
/// per stored PPV per query" without reading a clock. Reset when the
/// next query starts; read through [`QueryWorkspace::last_scan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Stored PPVs folded into the estimate.
    pub hubs_scanned: usize,
    /// Their entries, i.e. scatter-adds into the dense estimate.
    pub entries_scanned: usize,
}

/// The dense per-query scratch Algorithm 2's increment loop runs over:
/// the running estimate, the per-hub pending coefficients not yet folded
/// into it, the border-hub frontier accumulator, and the reused
/// previous-increment buffer. Graph-sized once, reused across
/// queries; [`IncrementalState`] holds only bookkeeping, so the same
/// scratch serves the in-memory engine and the disk engine in
/// `fastppv-cluster`.
pub struct IncrementScratch {
    estimate: ScoreScratch,
    frontier: ScoreScratch,
    prev: Vec<(NodeId, f64)>,
    /// hub → `Σ r̂ⁱ⁻¹(h)/α` over the rounds since the last assemble pass.
    pending: ScoreScratch,
    /// `pending`, drained in hub-id order for one assemble pass.
    assembling: Vec<(NodeId, f64)>,
    scan: ScanWork,
}

impl IncrementScratch {
    /// A scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        IncrementScratch {
            estimate: ScoreScratch::new(n),
            frontier: ScoreScratch::new(n),
            prev: Vec::new(),
            pending: ScoreScratch::new(n),
            assembling: Vec::new(),
            scan: ScanWork::default(),
        }
    }

    /// Number of node slots the scratch covers.
    pub fn capacity(&self) -> usize {
        self.estimate.capacity()
    }

    fn reset(&mut self) {
        self.estimate.clear();
        self.frontier.clear();
        self.prev.clear();
        self.pending.clear();
        self.scan = ScanWork::default();
    }

    /// The assemble kernel: folds every pending coefficient into the dense
    /// estimate, `estimate += pending[h] · r̊⁰_h` in ascending hub id — the
    /// order `pending` drains in, and the order the arena lays segments out
    /// in — and clears them, so a second call is free. `store` must be the
    /// store the rounds advanced over.
    pub fn assemble<S: PpvStore>(&mut self, store: &S) {
        let IncrementScratch {
            estimate,
            pending,
            assembling,
            scan,
            ..
        } = self;
        pending.drain_into(assembling);
        for &(h, coeff) in assembling.iter() {
            let view = store
                .view(h)
                .expect("a pending coefficient is only ever added for a stored hub");
            scan.hubs_scanned += 1;
            scan.entries_scanned += view.len();
            // The bandwidth-bound loop: scale every entry into the dense
            // estimate. The SoA arm runs over two contiguous slices with
            // no tuple loads.
            match &view {
                PpvRef::Soa { ids, scores } => {
                    for (&p, &s) in ids.iter().zip(scores.iter()) {
                        estimate.add(p, coeff * s);
                    }
                }
                other => other.for_each(|p, s| estimate.add(p, coeff * s)),
            }
        }
    }
}

/// The advance kernel: one Theorem-4 round over `sublist` (sorted by hub
/// id) on hub coordinates only. Per hub above `δ`: its coefficient joins
/// `pending`, coefficient × stored norm joins the round's mass, and its
/// border sublist feeds `frontier`. Returns `(hubs expanded, increment
/// mass)`, or the first hub missing from the store.
fn advance<S: PpvStore>(
    sublist: &[(NodeId, f64)],
    store: &S,
    config: &Config,
    pending: &mut ScoreScratch,
    frontier: &mut ScoreScratch,
) -> Result<(usize, f64), NodeId> {
    let inv_alpha = 1.0 / config.alpha;
    let mut hubs_expanded = 0usize;
    let mut inc_mass = 0.0;
    for &(h, mass) in sublist {
        if mass <= config.delta {
            continue;
        }
        let (Some(view), Some(norm), Some((border_ids, border_pos))) =
            (store.view(h), store.stored_norm(h), store.border_sublist(h))
        else {
            return Err(h);
        };
        hubs_expanded += 1;
        let coeff = mass * inv_alpha;
        pending.add(h, coeff);
        inc_mass += coeff * norm;
        // The next frontier: only this PPV's hub entries matter, and the
        // precomputed border sublist names exactly those.
        for (&b, &pos) in border_ids.iter().zip(border_pos.iter()) {
            frontier.add(b, coeff * view.score_at(pos as usize));
        }
    }
    Ok((hubs_expanded, inc_mass))
}

/// Per-query mutable scratch space, sized to the graph once and reused
/// across queries. The engine itself is immutable at query time; each
/// thread (or each in-flight query) brings its own workspace.
pub struct QueryWorkspace {
    prime: PrimeComputer,
    inc: IncrementScratch,
}

impl QueryWorkspace {
    /// A workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        QueryWorkspace {
            prime: PrimeComputer::new(n),
            inc: IncrementScratch::new(n),
        }
    }

    /// Number of node slots the workspace covers.
    pub fn capacity(&self) -> usize {
        self.inc.capacity()
    }

    /// The increment scratch, for callers that drive the scattered
    /// expansion path ([`expand_frontier`]) directly.
    pub fn increment_scratch(&mut self) -> &mut IncrementScratch {
        &mut self.inc
    }

    /// What the last query over this workspace scanned to assemble its
    /// estimate (like [`PrimeComputer::last_solve`] for its prime-0).
    pub fn last_scan(&self) -> ScanWork {
        self.inc.scan
    }

    /// Computes iteration 0 of `q` for a scattered query: the raw prime
    /// PPV entries (trivial tour excluded, exactly as stored) and their
    /// border-hub frontier, in entry order. Reads the stored PPV when `q`
    /// is indexed — the same bytes a single-process query would use — and
    /// computes it on the fly otherwise, through the same query-time kernel
    /// family as [`QueryEngine::query`]'s iteration 0. The caller (the
    /// router) adds the trivial tour `α` at `q` and sums the covered mass
    /// itself, in the same order [`IncrementalState::new`] does.
    pub fn prime0_parts<S: PpvStore>(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        store: &S,
        q: NodeId,
        config: &Config,
    ) -> (MassList, MassList) {
        assert!(
            (q as usize) < graph.num_nodes(),
            "query node {q} out of range"
        );
        let mut entries = Vec::new();
        let mut frontier = Vec::new();
        let mut collect = |p: NodeId, s: f64| {
            entries.push((p, s));
            if hubs.is_hub(p) {
                frontier.push((p, s));
            }
        };
        match store.view(q) {
            Some(view) => view.for_each(&mut collect),
            None => {
                let (slice, _) = self.prime.prime_ppv_into(graph, hubs, q, config);
                for &(p, s) in slice {
                    collect(p, s);
                }
            }
        }
        (entries, frontier)
    }
}

/// The FastPPV online engine: immutable shared state of the online phase
/// (graph, hub set, PPV store, configuration).
///
/// Every query method takes `&self`; per-query mutable scratch lives in a
/// [`QueryWorkspace`]. One engine can therefore be shared across threads
/// (by reference or inside an `Arc`) as long as the store is `Sync` — each
/// worker holds its own workspace and calls [`QueryEngine::query_with`].
/// The workspace-free convenience methods ([`QueryEngine::query`],
/// [`QueryEngine::query_top_k`], [`QueryEngine::session`]) allocate a fresh
/// workspace per call; hot loops should reuse one via
/// [`QueryEngine::workspace`].
pub struct QueryEngine<'a, S: PpvStore> {
    graph: &'a Graph,
    hubs: &'a HubSet,
    store: &'a S,
    config: Config,
}

impl<'a, S: PpvStore> QueryEngine<'a, S> {
    /// Creates an engine over a graph, hub set, and PPV store.
    pub fn new(graph: &'a Graph, hubs: &'a HubSet, store: &'a S, config: Config) -> Self {
        config.validate();
        QueryEngine {
            graph,
            hubs,
            store,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The graph the engine queries.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Allocates a workspace sized to this engine's graph.
    pub fn workspace(&self) -> QueryWorkspace {
        QueryWorkspace::new(self.graph.num_nodes())
    }

    /// Answers a query, iterating until `stop` is met. Allocates a fresh
    /// workspace; prefer [`QueryEngine::query_with`] in hot loops.
    pub fn query(&self, q: NodeId, stop: &StoppingCondition) -> QueryResult {
        self.query_with(&mut self.workspace(), q, stop)
    }

    /// Answers a query using caller-provided scratch space.
    pub fn query_with(
        &self,
        ws: &mut QueryWorkspace,
        q: NodeId,
        stop: &StoppingCondition,
    ) -> QueryResult {
        self.query_with_cancel(ws, q, stop, 0, None)
    }

    /// Like [`QueryEngine::query_with`], but additionally polls `cancel`
    /// at every increment boundary. When the flag flips, the loop stops
    /// before the next increment and the partial answer is returned with
    /// its current certified φ — a cancelled query is a *looser* answer,
    /// never a wrong one. Iteration 0 (the query's own prime PPV) always
    /// runs, so even an immediately-cancelled query carries a finite
    /// error bound.
    ///
    /// `top_k` is how much of the answer to keep: 0 keeps the whole
    /// estimate, `k > 0` only its `k` best entries ([`QuerySession::finish`]).
    pub fn query_with_cancel(
        &self,
        ws: &mut QueryWorkspace,
        q: NodeId,
        stop: &StoppingCondition,
        top_k: usize,
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> QueryResult {
        let cancelled = || cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        let mut session = self.session_in(ws, q);
        while !cancelled()
            && !stop.met(
                session.iterations_done(),
                session.l1_error(),
                session.elapsed(),
            )
        {
            if !session.step() {
                break;
            }
        }
        session.finish(top_k)
    }

    /// Answers a top-`k` query, iterating until the set is *certified*
    /// exact (see [`IncrementalState::certified_top_k`]) or `max_iterations`
    /// increments have run. Returns the best-effort set and whether it is
    /// certified.
    pub fn query_top_k(&self, q: NodeId, k: usize, max_iterations: usize) -> TopKResult {
        self.query_top_k_with(&mut self.workspace(), q, k, max_iterations)
    }

    /// Like [`QueryEngine::query_top_k`] using caller-provided scratch.
    pub fn query_top_k_with(
        &self,
        ws: &mut QueryWorkspace,
        q: NodeId,
        k: usize,
        max_iterations: usize,
    ) -> TopKResult {
        let mut session = self.session_in(ws, q);
        loop {
            if let Some(nodes) = session.certified_top_k(k) {
                return TopKResult {
                    nodes,
                    certified: true,
                    iterations: session.iterations_done(),
                    l1_error: session.l1_error(),
                };
            }
            if session.iterations_done() >= max_iterations || !session.step() {
                return TopKResult {
                    nodes: session.top_k(k),
                    certified: false,
                    iterations: session.iterations_done(),
                    l1_error: session.l1_error(),
                };
            }
        }
    }

    /// Starts an incremental session over a freshly allocated workspace
    /// (owned by the session): iteration 0 is computed immediately; call
    /// [`QuerySession::step`] to add increments one at a time.
    pub fn session(&self, q: NodeId) -> QuerySession<'_, 'a, S> {
        self.start_session(WorkspaceSlot::Owned(Box::new(self.workspace())), q)
    }

    /// Starts an incremental session over caller-provided scratch space.
    pub fn session_in<'e>(
        &'e self,
        ws: &'e mut QueryWorkspace,
        q: NodeId,
    ) -> QuerySession<'e, 'a, S> {
        assert!(
            ws.capacity() >= self.graph.num_nodes(),
            "workspace sized for {} nodes, graph has {}",
            ws.capacity(),
            self.graph.num_nodes()
        );
        self.start_session(WorkspaceSlot::Borrowed(ws), q)
    }

    fn start_session<'e>(
        &'e self,
        mut ws: WorkspaceSlot<'e>,
        q: NodeId,
    ) -> QuerySession<'e, 'a, S> {
        assert!(
            (q as usize) < self.graph.num_nodes(),
            "query node {q} out of range"
        );
        // The session clock starts before iteration 0: on a non-hub source
        // that is the most expensive step of the query, and a deadline
        // that did not count it would be a deadline plus milliseconds.
        let started = Instant::now();
        // Iteration 0: r̊⁰_q viewed straight from the index (zero-copy)
        // when q is a hub, computed on the fly otherwise — through the
        // fused extract+solve path, which leaves the sorted entries in the
        // workspace's prime computer instead of materializing a
        // `PrimeSubgraph` and a `PrimePpv` per query. Either way iteration
        // 0 borrows; the only allocation on a cold warm-workspace query is
        // the per-session stats vector.
        let state = {
            let QueryWorkspace { prime, inc } = ws.get_mut();
            let prime0 = match self.store.view(q) {
                Some(view) => view,
                None => PpvRef::Aos(
                    prime
                        .prime_ppv_into(self.graph, self.hubs, q, &self.config)
                        .0,
                ),
            };
            IncrementalState::new(q, prime0, self.hubs, self.config.alpha, inc, started)
        };
        QuerySession {
            engine: self,
            ws,
            state,
        }
    }
}

/// The engine-independent bookkeeping of Algorithm 2: covered mass,
/// iteration count, and diagnostics. The dense numeric state (estimate,
/// frontier, previous increment) lives in the caller's
/// [`IncrementScratch`], passed into every method — that is what makes the
/// loop allocation-free and the scratch reusable across queries. Shared by
/// the in-memory [`QuerySession`] and the disk-based engine in
/// `fastppv-cluster` (via [`run_increments`]).
#[derive(Clone, Debug)]
pub struct IncrementalState {
    query: NodeId,
    covered: f64,
    iterations_done: usize,
    exhausted: bool,
    stats: Vec<IterationStats>,
    started: Instant,
}

impl IncrementalState {
    /// Initializes iteration 0 from a view of the query's prime PPV `r̊⁰_q`
    /// (with the trivial tour excluded, as stored; it is added back here).
    /// Resets `scratch` first, so a dirty scratch from an abandoned session
    /// is safe to reuse.
    ///
    /// `started` is when the query began — taken by the caller *before* it
    /// obtained `prime0`, so that [`IncrementalState::elapsed`], every
    /// [`IterationStats::elapsed`] and [`StoppingCondition::time_limit`]
    /// count the cost of iteration 0.
    pub fn new(
        q: NodeId,
        prime0: PpvRef<'_>,
        hubs: &HubSet,
        alpha: f64,
        scratch: &mut IncrementScratch,
        started: Instant,
    ) -> Self {
        scratch.reset();
        let IncrementScratch { estimate, prev, .. } = scratch;
        let mut covered = 0.0;
        prime0.for_each(|p, s| {
            estimate.add(p, s);
            covered += s;
            if hubs.is_hub(p) {
                prev.push((p, s));
            }
        });
        // The trivial tour: α at the query node (excluded from storage).
        estimate.add(q, alpha);
        covered += alpha;
        let mut stats = Vec::with_capacity(16);
        stats.push(IterationStats {
            iteration: 0,
            increment_mass: covered,
            hubs_expanded: 0,
            l1_error_after: (1.0 - covered).max(0.0),
            elapsed: started.elapsed(),
        });
        IncrementalState {
            query: q,
            covered,
            iterations_done: 0,
            exhausted: false,
            stats,
            started,
        }
    }

    /// Advances one round (Theorem 4 on hub coordinates — see the module
    /// docs): the increment's mass, `φ` and the next frontier are final
    /// when this returns, its entries reach the estimate at the next
    /// assemble pass. Returns `false` when the frontier is exhausted (no
    /// border hub clears `δ`).
    ///
    /// `scratch` must be the same scratch this state was created over.
    pub fn step<S: PpvStore>(
        &mut self,
        store: &S,
        config: &Config,
        scratch: &mut IncrementScratch,
    ) -> bool {
        if self.exhausted {
            return false;
        }
        let IncrementScratch {
            frontier,
            prev,
            pending,
            ..
        } = scratch;
        // Every hub is indexed by construction; a missing entry would
        // silently bias results, so fail loudly.
        let (hubs_expanded, inc_mass) = advance(prev, store, config, pending, frontier)
            .unwrap_or_else(|h| panic!("hub {h} has no prime PPV in the store"));
        if hubs_expanded == 0 {
            self.exhausted = true;
            return false;
        }
        // The frontier becomes the next previous-increment: drained into
        // the reused buffer, which the drain leaves in node-id order, so
        // expansion order — and therefore floating-point accumulation
        // order — depends on node ids alone.
        frontier.drain_into(prev);
        self.covered += inc_mass;
        self.iterations_done += 1;
        self.stats.push(IterationStats {
            iteration: self.iterations_done,
            increment_mass: inc_mass,
            hubs_expanded,
            l1_error_after: self.l1_error(),
            elapsed: self.started.elapsed(),
        });
        true
    }

    /// The accuracy-aware L1 error `φ = 1 − ‖r̂‖₁` (Eq. 6).
    pub fn l1_error(&self) -> f64 {
        (1.0 - self.covered).max(0.0)
    }

    /// Increments computed beyond iteration 0.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Whether the expansion frontier has emptied.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Wall-clock time since the query started (iteration 0 included).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Materializes the current estimate as a sorted sparse vector (the
    /// scratch keeps its state). Prefer [`IncrementalState::into_result`],
    /// which materializes exactly once. Like every reader of the estimate
    /// it runs the assemble pass over `store` first.
    pub fn estimate_sparse<S: PpvStore>(
        &self,
        store: &S,
        scratch: &mut IncrementScratch,
    ) -> SparseVector {
        scratch.assemble(store);
        scratch.estimate.to_sparse()
    }

    /// Top-`k` nodes of the current estimate, descending (ties by id).
    pub fn top_k<S: PpvStore>(
        &self,
        k: usize,
        store: &S,
        scratch: &mut IncrementScratch,
    ) -> Vec<(NodeId, f64)> {
        scratch.assemble(store);
        scratch.estimate.top_k(k)
    }

    /// The certified top-`k` set, if the current accuracy proves it.
    ///
    /// Every estimate entry is a lower bound on the true score and the
    /// total missing mass is `φ`, so the true score of any node lies in
    /// `[r̂(p), r̂(p) + φ]`. When the k-th estimate exceeds the (k+1)-th by
    /// at least `φ`, no outside node can overtake the set — the *set* (not
    /// its internal order) is provably the exact top-k. This turns the
    /// accuracy-aware error into rank certification, in the spirit of the
    /// top-K lines of work the paper cites ([Gupta et al. 2008; Fujiwara et
    /// al. 2012]).
    pub fn certified_top_k<S: PpvStore>(
        &self,
        k: usize,
        store: &S,
        scratch: &mut IncrementScratch,
    ) -> Option<Vec<(NodeId, f64)>> {
        assert!(k > 0, "k must be positive");
        let phi = self.l1_error();
        let top = self.top_k(k + 1, store, scratch);
        if top.len() <= k {
            // Fewer than k+1 scored nodes: outside nodes have estimate 0,
            // so certification needs the k-th score to beat 0 + φ.
            let kth = top.last().map(|&(_, s)| s).unwrap_or(0.0);
            return (top.len() == k && kth >= phi).then_some(top);
        }
        let kth = top[k - 1].1;
        let next = top[k].1;
        (kth - next >= phi).then(|| {
            let mut set = top;
            set.truncate(k);
            set
        })
    }

    /// Finalizes into a [`QueryResult`]: the query's one assemble pass,
    /// then the single materialization of the sorted sparse estimate —
    /// whole when `top_k` is 0, else only its `top_k` best entries
    /// ([`ScoreScratch::drain_top_k`]) — which resets the scratch's
    /// estimate for reuse.
    pub fn into_result<S: PpvStore>(
        self,
        store: &S,
        scratch: &mut IncrementScratch,
        top_k: usize,
    ) -> QueryResult {
        scratch.assemble(store);
        QueryResult {
            query: self.query,
            l1_error: (1.0 - self.covered).max(0.0),
            scores: scratch.estimate.drain_top_k(top_k),
            iterations: self.iterations_done,
            elapsed: self.started.elapsed(),
            exhausted: self.exhausted,
            iteration_stats: self.stats,
        }
    }
}

/// Runs Algorithm 2's increment loop to completion given a precomputed
/// iteration 0. This is the entry point for engines that obtained `r̊⁰_q`
/// by other means (e.g. the disk-based engine in `fastppv-cluster`);
/// `started` is the instant taken before they did (see
/// [`IncrementalState::new`]).
#[allow(clippy::too_many_arguments)]
pub fn run_increments<S: PpvStore>(
    q: NodeId,
    prime0: &crate::index::PrimePpv,
    hubs: &HubSet,
    store: &S,
    config: &Config,
    stop: &StoppingCondition,
    scratch: &mut IncrementScratch,
    started: Instant,
) -> QueryResult {
    let mut state = IncrementalState::new(
        q,
        PpvRef::Aos(prime0.entries.entries()),
        hubs,
        config.alpha,
        scratch,
        started,
    );
    while !stop.met(state.iterations_done(), state.l1_error(), state.elapsed()) {
        if !state.step(store, config, scratch) {
            break;
        }
    }
    state.into_result(store, scratch, 0)
}

/// A list of `(node, mass)` pairs — prime-PPV entries or a border-hub
/// frontier slice, depending on context.
pub type MassList = Vec<(NodeId, f64)>;

/// One store's share of an increment, produced by [`expand_frontier`]:
/// the partial estimate contribution, the partial next frontier, and the
/// covered-mass contribution. Partial outcomes from disjoint stores merge
/// exactly (the paper's linearity decomposition): summing `entries`,
/// `frontier`, and `increment_mass` across shards — in a fixed shard
/// order — reproduces [`IncrementalState::step`] up to floating-point
/// reassociation.
#[derive(Clone, Debug)]
pub struct ExpandOutcome {
    /// Partial increment `(1/α) Σ r̂(h)·r̊⁰_h` over this store's hubs,
    /// sorted by node id.
    pub entries: SparseVector,
    /// This store's contribution to the next border-hub frontier, sorted
    /// by node id.
    pub frontier: Vec<(NodeId, f64)>,
    /// L1 mass of `entries`, as `Σ_h coefficient · ‖r̊⁰_h‖₁` in expansion
    /// order — the shard's contribution to the covered mass `‖r̂‖₁` behind
    /// `φ`.
    pub increment_mass: f64,
    /// Border hubs actually expanded (entries at or below `δ` are skipped,
    /// exactly as in [`IncrementalState::step`]).
    pub hubs_expanded: usize,
}

/// Expands one sublist of a border-hub frontier against a (possibly
/// partial) store: the shard-side half of a scattered
/// [`IncrementalState::step`] — the advance kernel and the assemble pass
/// back to back, since the caller wants this round's entries now.
/// `sublist` must be sorted by hub id — the same order `step` expands in —
/// so per-entry accumulation order matches the single-store loop. Hubs
/// whose mass does not clear `config.delta` are skipped; a hub missing
/// from the store is an error (`Err(hub)`) rather than a silent bias,
/// mirroring the panic in `step`. The store's border sublists carry the
/// hub set, so the hub-set argument is not read.
pub fn expand_frontier<S: PpvStore>(
    sublist: &[(NodeId, f64)],
    _hubs: &HubSet,
    store: &S,
    config: &Config,
    scratch: &mut IncrementScratch,
) -> Result<ExpandOutcome, NodeId> {
    scratch.reset();
    let (hubs_expanded, increment_mass) = advance(
        sublist,
        store,
        config,
        &mut scratch.pending,
        &mut scratch.frontier,
    )?;
    scratch.assemble(store);
    let mut frontier = Vec::new();
    scratch.frontier.drain_into(&mut frontier);
    Ok(ExpandOutcome {
        entries: scratch.estimate.drain_sparse(),
        frontier,
        increment_mass,
        hubs_expanded,
    })
}

/// The scratch space a [`QuerySession`] runs over: either owned by the
/// session (convenience path) or borrowed from the caller (hot path).
enum WorkspaceSlot<'w> {
    Owned(Box<QueryWorkspace>),
    Borrowed(&'w mut QueryWorkspace),
}

impl WorkspaceSlot<'_> {
    fn get_mut(&mut self) -> &mut QueryWorkspace {
        match self {
            WorkspaceSlot::Owned(ws) => ws,
            WorkspaceSlot::Borrowed(ws) => ws,
        }
    }
}

/// An in-flight incremental query (paper's "incremental query processing").
pub struct QuerySession<'e, 'a, S: PpvStore> {
    engine: &'e QueryEngine<'a, S>,
    ws: WorkspaceSlot<'e>,
    state: IncrementalState,
}

impl<S: PpvStore> QuerySession<'_, '_, S> {
    /// Computes the next increment (Theorem 4). Returns `false` when the
    /// frontier is exhausted (no border hub clears `δ`), in which case the
    /// session state is unchanged.
    pub fn step(&mut self) -> bool {
        let engine = self.engine;
        self.state
            .step(engine.store, &engine.config, &mut self.ws.get_mut().inc)
    }

    /// The accuracy-aware L1 error `φ = 1 − ‖r̂‖₁` (Eq. 6).
    pub fn l1_error(&self) -> f64 {
        self.state.l1_error()
    }

    /// Increments computed beyond iteration 0.
    pub fn iterations_done(&self) -> usize {
        self.state.iterations_done()
    }

    /// Whether the expansion frontier has emptied.
    pub fn is_exhausted(&self) -> bool {
        self.state.is_exhausted()
    }

    /// Wall-clock time since the session started.
    pub fn elapsed(&self) -> Duration {
        self.state.elapsed()
    }

    /// Folds the rounds run so far into the dense estimate now (see the
    /// module docs). Every reader below does this itself; calling it
    /// directly moves the pass to a moment of the caller's choosing.
    pub fn assemble(&mut self) {
        self.ws.get_mut().inc.assemble(self.engine.store);
    }

    /// The current estimate, materialized as a sorted sparse vector. The
    /// estimate itself lives densely in the session's workspace; calling
    /// this mid-session costs an assemble pass and a copy of the estimate —
    /// [`QuerySession::into_result`] is the materialize-once path.
    pub fn estimate(&mut self) -> SparseVector {
        let inc = &mut self.ws.get_mut().inc;
        self.state.estimate_sparse(self.engine.store, inc)
    }

    /// Top-`k` nodes of the current estimate, descending (ties by id).
    pub fn top_k(&mut self, k: usize) -> Vec<(NodeId, f64)> {
        let inc = &mut self.ws.get_mut().inc;
        self.state.top_k(k, self.engine.store, inc)
    }

    /// The certified top-`k` set, if the current accuracy proves it (see
    /// [`IncrementalState::certified_top_k`]).
    pub fn certified_top_k(&mut self, k: usize) -> Option<Vec<(NodeId, f64)>> {
        let inc = &mut self.ws.get_mut().inc;
        self.state.certified_top_k(k, self.engine.store, inc)
    }

    /// The query node.
    pub fn query(&self) -> NodeId {
        self.state.query
    }

    /// Per-iteration diagnostics so far.
    pub fn iteration_stats(&self) -> &[IterationStats] {
        &self.state.stats
    }

    /// Finalizes the session with the whole estimate.
    pub fn into_result(self) -> QueryResult {
        self.finish(0)
    }

    /// Finalizes the session keeping `top_k` entries of the estimate: all
    /// of them when `top_k` is 0, else the `top_k` best — the entries
    /// [`QueryResult::top_k`] of the whole answer would pick, bit for bit,
    /// held in ascending node id.
    pub fn finish(self, top_k: usize) -> QueryResult {
        let QuerySession {
            engine,
            mut ws,
            state,
        } = self;
        state.into_result(engine.store, &mut ws.get_mut().inc, top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs::{select_hubs, HubPolicy, HubSet};
    use crate::offline::build_index;
    use fastppv_baselines::exact::{exact_ppv, ExactOptions};
    use fastppv_baselines::naive::partition_by_hub_length;
    use fastppv_graph::gen::barabasi_albert;
    use fastppv_graph::toy;

    fn toy_setup(config: Config) -> (fastppv_graph::Graph, HubSet, crate::index::FlatIndex) {
        let g = toy::graph();
        let hubs = HubSet::from_ids(8, toy::PAPER_HUBS.to_vec());
        let (index, _) = build_index(&g, &hubs, &config);
        (g, hubs, index)
    }

    #[test]
    fn increments_match_naive_hub_length_partitions() {
        // The definitive correctness test: per-iteration increments must
        // equal the naive per-tour hub-length partition masses.
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let mut session = engine.session(toy::A);
        let parts = partition_by_hub_length(&g, toy::A, hubs.mask(), 0.15, 1e-13);
        // Iteration 0 vs T0 (the estimate includes the trivial tour; the
        // naive partition counts it too, at the query node).
        let t0: f64 = parts[0].iter().sum();
        assert!(
            (session.iteration_stats()[0].increment_mass - t0).abs() < 1e-7,
            "T0: got {} want {t0}",
            session.iteration_stats()[0].increment_mass
        );
        let mut level = 1;
        while session.step() {
            let expected: f64 = parts.get(level).map(|p| p.iter().sum()).unwrap_or(0.0);
            let got = session.iteration_stats()[level].increment_mass;
            assert!(
                (got - expected).abs() < 1e-6,
                "T{level}: got {got} want {expected}"
            );
            level += 1;
            if level > 6 {
                break;
            }
        }
    }

    #[test]
    fn estimate_converges_to_exact() {
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let result = engine.query(toy::A, &StoppingCondition::l1_error(1e-9));
        let exact = exact_ppv(&g, toy::A, ExactOptions::default());
        for v in g.nodes() {
            assert!(
                (result.scores.get(v) - exact[v as usize]).abs() < 1e-6,
                "node {v}"
            );
        }
        assert!(result.l1_error < 1e-8);
    }

    #[test]
    fn monotone_and_accuracy_aware() {
        // Theorem 1 (monotone growth) and Eq. 6 (reported φ equals the true
        // L1 gap when nothing is truncated).
        let g = barabasi_albert(400, 3, 7);
        let config = Config::exhaustive();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let exact = exact_ppv(&g, 11, ExactOptions::default());
        let mut session = engine.session(11);
        let mut prev = session.estimate();
        for _ in 0..4 {
            let reported = session.l1_error();
            let true_gap = session.estimate().l1_distance_dense(&exact);
            assert!(
                (reported - true_gap).abs() < 1e-6,
                "reported {reported} true {true_gap}"
            );
            if !session.step() {
                break;
            }
            // Entry-wise monotone growth.
            let current = session.estimate();
            for &(v, s) in prev.entries() {
                assert!(current.get(v) >= s - 1e-12);
            }
            prev = current;
        }
    }

    #[test]
    fn error_bound_theorem_2_holds() {
        let g = barabasi_albert(300, 3, 3);
        let config = Config::exhaustive();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        for q in [0u32, 50, 150, 299] {
            let mut session = engine.session(q);
            for k in 0..5usize {
                let bound = crate::error::l1_error_bound(0.15, k);
                assert!(
                    session.l1_error() <= bound + 1e-9,
                    "q {q} k {k}: φ {} > bound {bound}",
                    session.l1_error()
                );
                if !session.step() {
                    break;
                }
            }
        }
    }

    #[test]
    fn hub_query_loads_from_index() {
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let result = engine.query(toy::D, &StoppingCondition::l1_error(1e-9));
        let exact = exact_ppv(&g, toy::D, ExactOptions::default());
        for v in g.nodes() {
            assert!((result.scores.get(v) - exact[v as usize]).abs() < 1e-6);
        }
    }

    #[test]
    fn stopping_condition_iterations() {
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let r0 = engine.query(toy::A, &StoppingCondition::iterations(0));
        assert_eq!(r0.iterations, 0);
        let r2 = engine.query(toy::A, &StoppingCondition::iterations(2));
        assert!(r2.iterations <= 2);
        assert!(r2.l1_error <= r0.l1_error);
        assert_eq!(r2.iteration_stats.len(), r2.iterations + 1);
    }

    #[test]
    fn stopping_condition_l1() {
        let g = barabasi_albert(300, 3, 9);
        let config = Config::default().with_clip(0.0);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let r = engine.query(42, &StoppingCondition::l1_error(0.05));
        assert!(r.l1_error <= 0.05 || r.exhausted);
    }

    #[test]
    fn stopping_condition_time_limit_zero_stops_immediately() {
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let r = engine.query(toy::A, &StoppingCondition::time_limit(Duration::ZERO));
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn session_clock_starts_before_iteration_zero() {
        // On BA-5k a non-hub source's prime-0 takes milliseconds: the
        // clock must count them, or a deadline handed down as a time limit
        // silently grows by that much. The store is never read — both
        // limits below are spent before the first expansion.
        let g = barabasi_albert(5000, 4, 3);
        let hubs = select_hubs(&g, HubPolicy::OutDegree, 50, 0);
        let config = Config::default().with_epsilon(1e-6);
        let index = crate::index::FlatIndex::new(5000);
        let q = (0..5000u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let mut pc = PrimeComputer::new(5000);
        let bare = (0..3)
            .map(|_| {
                let started = Instant::now();
                pc.prime_ppv_into(&g, &hubs, q, &config);
                started.elapsed()
            })
            .min()
            .unwrap();
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        for limit in [Duration::ZERO, bare / 4] {
            let r = engine.query(q, &StoppingCondition::time_limit(limit));
            assert_eq!(r.iterations, 0, "limit {limit:?}, bare prime-0 {bare:?}");
            assert!(
                r.elapsed >= bare / 2 && r.iteration_stats[0].elapsed >= bare / 2,
                "elapsed {:?} (iteration 0 at {:?}) excludes a {bare:?} prime-0",
                r.elapsed,
                r.iteration_stats[0].elapsed
            );
        }
    }

    #[test]
    fn delta_filter_reduces_hub_expansions() {
        let g = barabasi_albert(400, 3, 13);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 40, 0);
        let strict = Config::default().with_delta(0.05).with_clip(0.0);
        let loose = Config::default().with_delta(0.0).with_clip(0.0);
        let (is, _) = build_index(&g, &hubs, &strict);
        let (il, _) = build_index(&g, &hubs, &loose);
        let es = QueryEngine::new(&g, &hubs, &is, strict);
        let el = QueryEngine::new(&g, &hubs, &il, loose);
        let rs = es.query(5, &StoppingCondition::iterations(2));
        let rl = el.query(5, &StoppingCondition::iterations(2));
        let hs: usize = rs.iteration_stats.iter().map(|s| s.hubs_expanded).sum();
        let hl: usize = rl.iteration_stats.iter().map(|s| s.hubs_expanded).sum();
        assert!(hs <= hl);
        assert!(rs.l1_error >= rl.l1_error - 1e-12);
    }

    #[test]
    fn exhaustion_reported_on_hubless_setup() {
        // No hubs: iteration 0 covers everything reachable above ε; the
        // first step must report exhaustion.
        let g = toy::graph();
        let hubs = HubSet::empty(8);
        let config = Config::exhaustive();
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let mut session = engine.session(toy::A);
        assert!(!session.step());
        assert!(session.is_exhausted());
        let r = session.into_result();
        assert!(r.l1_error < 1e-9, "hubless T0 covers the whole toy PPV");
    }

    #[test]
    fn cancelled_query_returns_partial_certified_answer() {
        use std::sync::atomic::AtomicBool;
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let mut ws = engine.workspace();
        // Pre-set cancel: the loop must stop at the first increment
        // boundary, returning iteration 0 with its (loose but true) φ.
        let cancel = AtomicBool::new(true);
        let partial = engine.query_with_cancel(
            &mut ws,
            toy::A,
            &StoppingCondition::l1_error(1e-12),
            0,
            Some(&cancel),
        );
        assert_eq!(partial.iterations, 0, "cancel stops before any step");
        let exact = exact_ppv(&g, toy::A, ExactOptions::default());
        let true_gap: f64 = g
            .nodes()
            .map(|v| exact[v as usize] - partial.scores.get(v))
            .sum();
        assert!(
            true_gap <= partial.l1_error + 1e-9,
            "partial φ {} is not a true bound (gap {true_gap})",
            partial.l1_error
        );
        // Unset cancel behaves exactly like query_with.
        let cancel = AtomicBool::new(false);
        let full = engine.query_with_cancel(
            &mut ws,
            toy::A,
            &StoppingCondition::l1_error(1e-9),
            0,
            Some(&cancel),
        );
        assert!(full.l1_error <= 1e-9);
    }

    #[test]
    fn session_reuses_dirty_workspace_cleanly() {
        // Abandoning a session mid-flight (no into_result) must not leak
        // estimate mass into the next session over the same workspace.
        let config = Config::exhaustive();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let mut ws = engine.workspace();
        {
            let mut abandoned = engine.session_in(&mut ws, toy::A);
            abandoned.step();
            // Dropped without materializing.
        }
        let clean = engine.query(toy::G, &StoppingCondition::iterations(2));
        let reused = engine.query_with(&mut ws, toy::G, &StoppingCondition::iterations(2));
        assert_eq!(clean.scores, reused.scores);
        assert_eq!(clean.l1_error, reused.l1_error);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_query() {
        let config = Config::default();
        let (g, hubs, index) = toy_setup(config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        engine.query(1000, &StoppingCondition::iterations(1));
    }

    #[test]
    fn certified_top_k_matches_exact_ranking() {
        let g = barabasi_albert(300, 3, 17);
        let config = Config::exhaustive();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        for q in [5u32, 120, 250] {
            let res = engine.query_top_k(q, 5, 40);
            assert!(res.certified, "q {q}: not certified at φ {}", res.l1_error);
            let exact = exact_ppv(&g, q, ExactOptions::default());
            let mut exact_top: Vec<u32> = (0..300u32).collect();
            exact_top.sort_by(|&a, &b| {
                exact[b as usize]
                    .partial_cmp(&exact[a as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let mut got: Vec<u32> = res.nodes.iter().map(|&(v, _)| v).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = exact_top[..5].to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "q {q}");
        }
    }

    #[test]
    fn certification_is_conservative() {
        // Whenever a set is certified, it must actually be the exact top-k;
        // at very low accuracy certification simply does not trigger.
        let g = barabasi_albert(200, 3, 19);
        let config = Config::exhaustive();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let exact = exact_ppv(&g, 42, ExactOptions::default());
        let mut session = engine.session(42);
        loop {
            if let Some(set) = session.certified_top_k(3) {
                for &(v, s) in &set {
                    // Lower bound within φ of the truth.
                    assert!(s <= exact[v as usize] + 1e-12);
                    assert!(exact[v as usize] - s <= session.l1_error() + 1e-12);
                }
                let min_in: f64 = set
                    .iter()
                    .map(|&(v, _)| exact[v as usize])
                    .fold(f64::INFINITY, f64::min);
                let max_out: f64 = (0..200u32)
                    .filter(|v| !set.iter().any(|&(u, _)| u == *v))
                    .map(|v| exact[v as usize])
                    .fold(0.0, f64::max);
                assert!(min_in >= max_out - 1e-12);
                break;
            }
            assert!(session.step(), "exhausted before certification");
        }
    }

    #[test]
    fn uncertified_result_reported_when_budget_too_small() {
        let g = barabasi_albert(300, 3, 23);
        // Heavy truncation: φ stays large, certification can fail.
        let config = Config::default().with_delta(0.05);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 10, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let res = engine.query_top_k(7, 10, 0);
        assert_eq!(res.nodes.len(), 10);
        // With zero extra iterations and φ ~ 0.5, a 10-way certification is
        // implausible; whichever way it lands, the flag must be honest.
        if res.certified {
            assert!(res.l1_error < 1.0);
        }
    }
}
