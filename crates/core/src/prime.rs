//! Prime subgraphs and prime PPVs (paper §4.2, Def. 2).
//!
//! The *prime subgraph* `G'(v)` of a node `v` contains everything reachable
//! from `v` through hub-free tours whose walk probability stays above `ε`,
//! plus the *border hubs* and sub-`ε` frontier nodes those tours run into
//! (kept as absorbing sinks). The *prime PPV* `r̂⁰_v` aggregates the
//! reachability of those tours per endpoint.
//!
//! ## Faithfulness notes
//!
//! * The paper describes the extraction as a DFS that backtracks at hubs and
//!   at nodes with reachability `< ε`. On cyclic graphs a per-path DFS does
//!   not terminate; the node set it defines is exactly
//!   `{u : max hub-free walk probability v ⇝ u ≥ ε}`, which we compute with
//!   a best-first search (walk probability is monotonically decreasing
//!   along a path, so best-first expansion is correct and each node is
//!   expanded once).
//! * Stored prime PPVs exclude the *trivial tour* mass `α` at the source:
//!   Theorems 3–4 assemble tours from **non-empty** hub-free segments (a
//!   transfer at a hub requires actually arriving there), so the empty tour
//!   must not participate in assembly. The online engine adds `α·e_q` back
//!   when it forms the estimate. This also makes a hub's *own* entry (mass
//!   returned to a hub source by cycles) a legitimate expansion coefficient.
//! * Mass arriving at a **hub** source is absorbed rather than re-propagated
//!   (the second visit is an interior hub occurrence, i.e. hub length ≥ 1);
//!   mass arriving at a non-hub source re-propagates.
//!
//! ## The kernel, anatomically
//!
//! This module is the one hot kernel both phases share: the offline build
//! runs it once per hub, the online engine once per cold non-hub query. It
//! is organized for throughput and tail latency:
//!
//! 1. **Extraction** runs a max-probability search whose priority queue is
//!    a monotone [`BucketQueue`] over quantized log-probabilities — O(1)
//!    push/pop with no float comparator — reading rows through a
//!    [`RowSource`]: the graph's CSR arrays directly
//!    ([`fastppv_graph::CsrView`]) on the in-memory path, or a
//!    disk-resident clustered graph, monomorphized either way.
//!    The same search marks every node of the subgraph — interior nodes
//!    and the absorbers their rows reach — in a graph-sized bitmap. Its
//!    per-edge work has no data-dependent branch: for the call's duration
//!    every hub's best probability reads `+∞`, so no walk weight improves
//!    it and the relax loop needs no hub test; every target of an expanded
//!    row is written to a candidate buffer that advances only past
//!    improved targets, and the best probability takes a select. The
//!    improved targets of one pop share one bucket and are appended to it
//!    in row order with one copy, so the queue pops exactly what pushing
//!    them one by one would.
//! 2. **The sweep list**: the source first, then the interior by
//!    descending global out-degree (ties by node id). High-degree nodes are
//!    the ones every other row points at, so sweeping them first carries
//!    mass forward through the subgraph's own core within one pass. It is
//!    built without a comparison sort: a walk of the membership bitmap
//!    lists the interior in ascending id order (written at every member,
//!    advanced past interior ones), and a stable counting sort by
//!    descending degree keeps that id order within each degree. Nothing is
//!    renumbered: the sweeps scatter into graph-indexed `mass` and
//!    `residual` arrays, in which absorbers (hubs and sub-`ε` frontier
//!    nodes) just collect and a hub source's slot, after its one settle,
//!    collects its returns. On the in-memory path the sweeps read rows
//!    straight from the graph's CSR. The materialized
//!    ([`PrimeComputer::extract`] → [`PrimeSubgraph`] →
//!    [`PrimeComputer::solve`]) and disk-resident
//!    ([`PrimeComputer::prime_ppv_from`]) callers sweep a copy of the
//!    interior's rows instead, in global ids, since a disk probe may fault
//!    and a materialized subgraph outlives its search. A target's
//!    accumulator receives one addend per *source row*, in sweep order,
//!    whichever rows the sweep reads, so the two solve to the same bits.
//! 3. **Solve** runs threshold-gated Gauss–Seidel sweeps down the sweep
//!    list: each pass settles every residual above `solve_tolerance` and
//!    re-propagates mass forward within the same pass, until a pass
//!    settles nothing — the same `tolerance × |interior|` leftover
//!    guarantee as a worklist push, in a fraction of the edge-visits.
//! 4. **Emit** walks the membership bitmap in ascending id order, so the
//!    entry list comes out sorted without a sort, and resets exactly the
//!    slots it visits: O(subgraph + n/64). Each member's score is α × its
//!    interior mass or its absorber residual, chosen by an exact 0/1
//!    blend; the entry is written unconditionally and the list advances
//!    past it only if the score is positive and reaches the clip. The
//!    source is the one special case, settled before the walk.
//!
//! The stages share one reusable workspace, [`PrimeComputer`]: after
//! warmup, [`PrimeComputer::prime_ppv_into`] — the *fused* one-shot path —
//! searches, solves, and emits the sorted entry list without a single heap
//! allocation. Every entry point runs the same search, the same sweep loop
//! and the same emit.
//!
//! ## Two families, one sweep loop
//!
//! The kernel has two kinds of caller, and they want different exits from
//! the same loop:
//!
//! * The **stored** family — [`PrimeComputer::prime_ppv`],
//!   [`PrimeComputer::extract`] + [`PrimeComputer::solve`] — computes PPVs
//!   that are kept: the offline build, `dynamic`'s exact recompute, a
//!   benchmark's fresh-solve check. It sweeps until every residual is at
//!   most `solve_tolerance` and clips at the caller's storage threshold.
//!   The in-memory route (graph rows) and the materialized route (copied
//!   rows) are bit-for-bit equal (pinned by the kernel-equivalence tests).
//! * The **query-time** family — [`PrimeComputer::prime_ppv_into`],
//!   [`PrimeComputer::prime_ppv_from`] — computes iteration 0 of a cold
//!   non-hub query, which is consumed once and never stored. It stops
//!   sweeping as soon as the total un-pushed residual is at most
//!   `config.delta`, and never clips. The increment loop that consumes the
//!   result already forfeits up to `(1-α)/α · δ` of covered mass for
//!   *every* border hub holding ≤ `δ`; a whole residual of ≤ `δ` forfeits
//!   at most `δ`, once. With `δ = 0` — the guaranteed-accuracy setting —
//!   the rule is inert and the two families agree in every bit.
//!
//! Stopping early needs no correction term. The solve only ever *emits
//! settled mass*: every emitted score is the mass of a subset of the tours
//! the full solve would count, so the estimate stays an entry-wise lower
//! bound on the exact PPV, and `φ = 1 − ‖r̂‖₁` (Eq. 6) is still the exact
//! L1 error of what was emitted — the residual left behind shows up in `φ`
//! by itself, as mass not covered. [`PrimeComputer::last_solve`] reports
//! how many sweeps a solve took and what it left.
//!
//! ## Why quantized priorities preserve determinism
//!
//! Bucketing pops nodes in quantized-priority order, not exact priority
//! order — but everything downstream depends only on quantities that are
//! *pop-order independent*: the interior node **set** (`{u : best(u) ≥ ε}`,
//! a fixed point of max-relaxation), the per-node **best probabilities**
//! (maxima of per-path products, each evaluated left-to-right), and the
//! sweep list (sorted by degree/id, not by discovery). The bucket
//! width is chosen ≤ `log2(1/(1-α))` — one random-walk step always decays
//! probability past at least one full bucket — so a popped node's best is
//! final, exactly as in an exact-priority search; even if a coarser width
//! is ever in effect (α < 1/65), the queue re-expands improved nodes and
//! converges to the same maxima. Two runs of any kernel entry point over
//! equal inputs are therefore bit-identical, which is what lets the
//! offline build merge worker output in hub order and stay byte-identical
//! to a serial build.

use fastppv_graph::{CsrView, Graph, NodeId, ScoreScratch, SparseVector};

use crate::config::Config;
use crate::hubs::HubSet;
use crate::index::PrimePpv;

/// Where the prime-subgraph search reads adjacency: the in-memory graph's
/// CSR ([`CsrView`]), or a disk-resident clustered graph
/// (`fastppv-cluster`'s `DiskGraph`), where a probe may fault a cluster
/// in — which is why the methods take `&mut self`. `visit` takes a
/// monomorphized closure, so the CSR's compiles down to a plain slice loop.
pub trait RowSource {
    /// Whether probes have effects the kernel must replay in one fixed
    /// order. A disk-resident source faults clusters in on a probe (and
    /// refuses probes past its fault cap), so the sweep list reads its
    /// interior degrees in discovery order, as the search found them; the
    /// CSR's probes are plain reads, taken in id order.
    const ORDERED_PROBES: bool;

    /// Out-degree of `v`.
    fn degree(&mut self, v: NodeId) -> usize;

    /// Calls `f` for every out-neighbor of `v`, with multiplicity, in
    /// adjacency order.
    fn visit<F: FnMut(NodeId)>(&mut self, v: NodeId, f: F);
}

/// The in-memory fast path: direct CSR slice iteration.
impl RowSource for CsrView<'_> {
    const ORDERED_PROBES: bool = false;

    #[inline]
    fn degree(&mut self, v: NodeId) -> usize {
        self.out_degree(v)
    }

    #[inline]
    fn visit<F: FnMut(NodeId)>(&mut self, v: NodeId, mut f: F) {
        for &t in self.out_neighbors(v) {
            f(t);
        }
    }
}

/// A monotone bucket queue over walk probabilities in `(0, 1]`, keyed on a
/// quantized log-probability: O(1) push and pop, no float comparisons.
///
/// ## Priority quantization
///
/// The bucket index of a probability `p` is derived from the raw IEEE-754
/// bits: `key(p) = key_base - (p.to_bits() >> (52 - k))`. The shifted bit
/// pattern keeps the sign (0), the exponent, and the top `k` mantissa bits,
/// and — for positive finite floats — is monotone in `p`, so `key` is
/// monotone *decreasing* in `p` and splits every octave `[2^e, 2^{e+1})`
/// into `2^k` linear sub-buckets. The widest sub-bucket spans
/// `log2(1 + 2^-k)` in log-probability; picking the smallest `k` with
/// `2^k ≥ (1-α)/α` makes that width at most `log2(1/(1-α))`, the decay of
/// a single degree-1 random-walk step. One relaxation therefore always
/// moves at least one bucket forward: the queue is *monotone* (drained
/// buckets never refill), pops are exact despite quantization, and the
/// entire priority structure uses integer ops only — fully deterministic
/// across platforms.
///
/// `k` is clamped to 6; below α = 1/65 the monotone guarantee lapses, and
/// the queue compensates by re-expanding a node whenever its best
/// probability improves after a pop (see [`PrimeComputer`]'s search loop),
/// which preserves exactness at the cost of occasional duplicate pops.
#[derive(Debug, Default)]
pub struct BucketQueue {
    buckets: Vec<Vec<(f64, NodeId)>>,
    cursor: usize,
    high: usize,
    len: usize,
    shift: u32,
    key_base: u64,
}

impl BucketQueue {
    /// An empty queue (call [`BucketQueue::configure`] before use).
    pub fn new() -> Self {
        BucketQueue::default()
    }

    /// Resets the queue and derives the quantization width from `alpha`
    /// (see the type docs). Bucket storage is retained across calls.
    pub fn configure(&mut self, alpha: f64) {
        debug_assert!(self.len == 0, "configure on a non-empty queue");
        let mut k = 0u32;
        while k < 6 && ((1u64 << k) as f64) * alpha < 1.0 - alpha {
            k += 1;
        }
        self.shift = 52 - k;
        self.key_base = 1.0f64.to_bits() >> self.shift;
        self.cursor = 0;
        self.high = 0;
    }

    #[inline]
    fn key(&self, p: f64) -> usize {
        debug_assert!(p > 0.0 && p <= 1.0);
        (self.key_base - (p.to_bits() >> self.shift)) as usize
    }

    /// The bucket `count` new entries at probability `p` go to, with the
    /// queue's bookkeeping already counting them.
    #[inline]
    fn bucket(&mut self, p: f64, count: usize) -> &mut Vec<(f64, NodeId)> {
        // Monotonicity bounds keys below by the drain cursor; clamping is a
        // release-mode safety net that keeps late entries poppable.
        let key = self.key(p).max(self.cursor);
        if key >= self.buckets.len() {
            self.buckets.resize_with(key + 1, Vec::new);
        }
        self.high = self.high.max(key);
        self.len += count;
        &mut self.buckets[key]
    }

    /// Enqueues `v` at probability `p ∈ (0, 1]`.
    #[inline]
    pub fn push(&mut self, p: f64, v: NodeId) {
        self.bucket(p, 1).push((p, v));
    }

    /// Enqueues every entry of `batch`, all at probability `p`, in slice
    /// order: the same queue as pushing them one by one, with one bucket
    /// lookup.
    #[inline]
    fn push_batch(&mut self, p: f64, batch: &[(f64, NodeId)]) {
        debug_assert!(batch.iter().all(|&(q, _)| q == p));
        if !batch.is_empty() {
            self.bucket(p, batch.len()).extend_from_slice(batch);
        }
    }

    /// Pops an entry from the lowest non-empty bucket (within a bucket,
    /// LIFO — deterministic, since insertion order is).
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, NodeId)> {
        if self.len == 0 {
            // Also covers a configured-but-never-pushed queue, where no
            // bucket storage exists yet.
            return None;
        }
        while self.cursor <= self.high {
            if let Some(entry) = self.buckets[self.cursor].pop() {
                self.len -= 1;
                return Some(entry);
            }
            self.cursor += 1;
        }
        None
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all entries (bucket capacities are retained).
    pub fn clear(&mut self) {
        for bucket in self.buckets.iter_mut().take(self.high + 1) {
            bucket.clear();
        }
        self.cursor = 0;
        self.high = 0;
        self.len = 0;
    }

    /// Heap bytes the buckets hold, by capacity.
    fn heap_bytes(&self) -> usize {
        let entries: usize = self.buckets.iter().map(Vec::capacity).sum();
        vec_bytes(&self.buckets) + entries * std::mem::size_of::<(f64, NodeId)>()
    }
}

/// Heap bytes a vector holds, by capacity.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The extracted prime subgraph of a source node: its members and a copy
/// of its interior's rows, all in global ids — what the materialized
/// ([`PrimeComputer::extract`] + [`PrimeComputer::solve`]) and
/// disk-resident ([`PrimeComputer::prime_ppv_from`]) paths sweep. The
/// in-memory one-shots sweep the graph's own CSR instead and copy nothing.
///
/// `nodes[..num_interior]` are the *interior* (propagating) nodes, in
/// sweep order: the source first, then descending global out-degree (ties
/// by node id). `nodes[num_interior..]` are the absorbers (border hubs and
/// sub-`ε` frontier nodes), in order of first appearance in the rows.
///
/// Row `u` holds every out-edge of `nodes[u]`, in the graph's adjacency
/// order, so its length is the node's global out-degree (the propagation
/// denominator). A hub source's row entries pointing back at it reach its
/// own slot, which after the source's single settle only collects returns
/// (the second visit would be an interior hub occurrence, so it absorbs).
#[derive(Clone, Debug, Default)]
pub struct PrimeSubgraph {
    /// The source node.
    pub source: NodeId,
    /// Every member: the interior in sweep order, then the absorbers.
    pub nodes: Vec<NodeId>,
    /// Number of interior (propagating) nodes; the rest absorb.
    pub num_interior: usize,
    /// CSR offsets over the interior into `targets`
    /// (`num_interior + 1` entries).
    pub offsets: Vec<u32>,
    /// Out-edge targets, one range per interior node.
    pub targets: Vec<NodeId>,
    /// Whether the source is a hub (its returning mass then absorbs).
    pub source_is_hub: bool,
}

impl PrimeSubgraph {
    /// Total nodes (interior + absorbers).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of absorber nodes.
    pub fn num_absorbers(&self) -> usize {
        self.nodes.len() - self.num_interior
    }

    /// Out-edges of interior node `nodes[u]`, in adjacency order.
    pub fn row(&self, u: usize) -> &[NodeId] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// Work counters of a [`PrimeComputer`]'s most recent search and solve
/// (see [`PrimeComputer::last_solve`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveWork {
    /// Passes over the interior nodes, the final one included.
    pub sweeps: usize,
    /// Node settles (one residual pushed to a node's out-edges) in total.
    pub settles: usize,
    /// Σ residual (mass units) the solve left un-pushed: at most
    /// `solve_tolerance × |interior|` for the stored family, at most
    /// `config.delta` for the query-time family.
    pub leftover: f64,
    /// Search: entries popped from the bucket queue, stale ones included.
    pub pops: usize,
    /// Search: popped entries whose probability had since improved.
    pub stale_pops: usize,
    /// Search: row entries visited by expanded pops (walk weight ≥ ε).
    pub relaxations: usize,
    /// Search: queue pushes, the source's included. The queue drains, so
    /// this equals `pops`.
    pub pushes: usize,
    /// Search: interior (swept) nodes, the source included.
    pub interior: usize,
    /// Search: subgraph nodes, interior and absorbers.
    pub members: usize,
}

/// Where the sweep kernel reads its rows. Position `i` of the sweep list
/// names a node — its slot in the graph-indexed scratch — and that node's
/// out-row; the row's length is the node's global out-degree, because
/// every out-neighbor of an interior node belongs to the subgraph.
trait SweepRows {
    /// Node at sweep position `i`.
    fn slot(&self, i: usize) -> usize;
    /// Out-row of sweep position `i`.
    fn row(&self, i: usize) -> &[NodeId];
}

/// The in-memory path: rows are the graph's own CSR slices. `order` is
/// the sweep list.
struct GraphRows<'a> {
    csr: CsrView<'a>,
    order: &'a [NodeId],
}

impl SweepRows for GraphRows<'_> {
    #[inline]
    fn slot(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        self.csr.out_neighbors(self.order[i])
    }
}

/// The materialized and disk paths: rows are the subgraph's copies.
impl SweepRows for PrimeSubgraph {
    #[inline]
    fn slot(&self, i: usize) -> usize {
        self.nodes[i] as usize
    }

    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        PrimeSubgraph::row(self, i)
    }
}

/// The one solve loop of both families and both row sources:
/// threshold-gated Gauss–Seidel sweeps over the first `len` sweep
/// positions, each pass settling every residual above `solve_tolerance`,
/// until a pass finds none. Because the sweep list is degree-descending, a
/// sweep pushes mass *forward* through the subgraph's own high-degree core
/// in the same pass (mass sent to a later position is re-propagated within
/// the sweep), so the residual tail decays in far fewer edge-visits than a
/// FIFO worklist — and the per-edge work is a branch-free scatter into the
/// dense `residual` array. Absorbers are never swept: their slots just
/// collect. A hub source is swept once; from then on its slot only
/// collects returns. The exit guarantee: at most `tolerance × |interior|`
/// mass is left unaccounted.
///
/// Every target's accumulator receives one addend per settled source row,
/// in sweep order, whatever the row source and whatever the order of
/// targets within a row — so the graph's rows and a copy of them solve to
/// the same bits.
///
/// `leave` is the residual allowance, in mass units (the part a delta
/// patch's allowance plays in [`crate::dynamic`]): when positive, the solve
/// also stops after the first sweep that leaves Σ residual ≤ `leave`. Zero
/// never evaluates the sum. Only settled mass is ever emitted, so an early
/// stop keeps the result an entry-wise lower bound (module docs).
///
/// Expects every slot the rows reach to be zero in both arrays. On return
/// `mass` holds interior visit mass, and `residual` the un-pushed residual
/// of interior slots and the collected mass of absorbers and of a hub
/// source's returns.
fn sweep<R: SweepRows>(
    rows: &R,
    len: usize,
    source_is_hub: bool,
    mass: &mut [f64],
    residual: &mut [f64],
    config: &Config,
    leave: f64,
) -> SolveWork {
    let alpha = config.alpha;
    let theta = config.solve_tolerance;
    let max_settles = config
        .solve_max_iterations
        .saturating_mul(len.max(1))
        .max(1_000);
    residual[rows.slot(0)] = 1.0;
    let mut work = SolveWork::default();
    let mut first = 0;
    loop {
        let mut settled_this_sweep = 0usize;
        for i in first..len {
            let u = rows.slot(i);
            let r = residual[u];
            if r <= theta {
                continue;
            }
            settled_this_sweep += 1;
            residual[u] = 0.0;
            mass[u] += r;
            let row = rows.row(i);
            if row.is_empty() {
                continue;
            }
            let share = r * (1.0 - alpha) / row.len() as f64;
            for &t in row {
                residual[t as usize] += share;
            }
        }
        first = usize::from(source_is_hub);
        work.sweeps += 1;
        work.settles += settled_this_sweep;
        if settled_this_sweep == 0 || work.settles > max_settles {
            // Clean sweep: every residual ≤ θ — or the safety valve
            // tripped (residual left is reported via clip/φ).
            break;
        }
        if leave > 0.0 {
            work.leftover = residual_left(rows, first, len, residual);
            if work.leftover <= leave {
                return work;
            }
        }
    }
    work.leftover = residual_left(rows, first, len, residual);
    work
}

/// Σ residual still pending at sweep positions `first..len`, summed in
/// sweep order.
fn residual_left<R: SweepRows>(rows: &R, first: usize, len: usize, residual: &[f64]) -> f64 {
    (first..len).fold(0.0, |sum, i| sum + residual[rows.slot(i)])
}

/// Counts `nodes` per out-degree into `counts` (grown to fit) and keeps
/// each node's degree in `best` as `degree + 1`. Returns the highest degree.
fn count_degrees<Src: RowSource>(
    src: &mut Src,
    nodes: &[NodeId],
    best: &mut [f64],
    counts: &mut Vec<u32>,
) -> usize {
    let mut max_degree = 0;
    for &v in nodes {
        let d = src.degree(v);
        best[v as usize] = (d + 1) as f64;
        if counts.len() <= d {
            counts.resize(d + 1, 0);
        }
        counts[d] += 1;
        max_degree = max_degree.max(d);
    }
    max_degree
}

/// Reusable workspace for prime-subgraph extraction and prime-PPV solves.
///
/// Repeated computations — one per hub offline, one per cold non-hub query
/// online — allocate nothing once warm: the in-memory one-shots
/// ([`PrimeComputer::prime_ppv_into`], [`PrimeComputer::prime_ppv`]) solve
/// on the graph's own CSR in graph-indexed scratch and emit the sorted
/// entry list by walking a membership bitmap, so `prime_ppv_into` is fully
/// allocation-free after the buffers have grown to the workload's
/// footprint, and `prime_ppv` allocates only the vector it returns.
///
/// Graph-sized scratch is 24.125 bytes per node: `best`, `mass` and
/// `residual` (8 bytes each) and the membership bitmap (1 bit), shared by
/// every entry point. Everything else is sized by what it holds: the
/// bucket queue by the search, the candidate buffer by the widest expanded
/// row, the interior list and the sweep list by the interior, the degree
/// counts by the highest interior degree, the entries by the subgraph, and
/// the copied rows of the materialized and disk paths by the subgraph they
/// copy ([`PrimeComputer::heap_bytes`] adds them up).
pub struct PrimeComputer {
    // Graph-sized, all-zero between calls: search probabilities, the
    // solve's settled mass and residual, and subgraph membership (interior
    // and absorbers, one bit per node).
    best: Vec<f64>,
    mass: Vec<f64>,
    residual: Vec<f64>,
    members: Vec<u64>,
    // Search scratch: the bucket queue, one expanded row's improved
    // targets, and the interior in id order (first in discovery order, for
    // a source with ordered probes). Both lists are written at every entry
    // and advanced by a flag, so their lengths are capacities and the
    // filled prefix is tracked apart.
    queue: BucketQueue,
    candidates: Vec<(f64, NodeId)>,
    found: Vec<NodeId>,
    // Interior nodes per out-degree (all-zero between calls), then the
    // sweep list built from them: the source first.
    degree_counts: Vec<u32>,
    order: Vec<NodeId>,
    // The copied rows of the materialized and disk paths (empty until
    // first used).
    local: PrimeSubgraph,
    // Emitted entries (the first `emitted`; written unconditionally, like
    // the search lists) and the last search's and solve's counters.
    entries: Vec<(NodeId, f64)>,
    emitted: usize,
    last: SolveWork,
}

impl PrimeComputer {
    /// A workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        PrimeComputer {
            best: vec![0.0; n],
            mass: vec![0.0; n],
            residual: vec![0.0; n],
            members: vec![0; n.div_ceil(64)],
            queue: BucketQueue::new(),
            candidates: Vec::new(),
            found: Vec::new(),
            degree_counts: Vec::new(),
            order: Vec::new(),
            local: PrimeSubgraph::default(),
            entries: Vec::new(),
            emitted: 0,
            last: SolveWork::default(),
        }
    }

    /// Heap bytes this workspace holds, by capacity: the graph-sized
    /// arrays, the queue's buckets, the search lists, the degree counts,
    /// the sweep list, the copied rows, and the entries.
    pub fn heap_bytes(&self) -> usize {
        let local = &self.local;
        vec_bytes(&self.best)
            + vec_bytes(&self.mass)
            + vec_bytes(&self.residual)
            + vec_bytes(&self.members)
            + self.queue.heap_bytes()
            + vec_bytes(&self.candidates)
            + vec_bytes(&self.found)
            + vec_bytes(&self.degree_counts)
            + vec_bytes(&self.order)
            + vec_bytes(&local.nodes)
            + vec_bytes(&local.offsets)
            + vec_bytes(&local.targets)
            + vec_bytes(&self.entries)
    }

    /// Finds `source`'s prime subgraph: a monotone bucket-queue search over
    /// walk probability marks its whole node set (interior and absorbers)
    /// in `members`, leaves `best` positive exactly at the interior, and
    /// builds the sweep list in `order`. Records the search's counters in
    /// `last` (the solve counters zeroed).
    fn search<Src: RowSource>(
        &mut self,
        src: &mut Src,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
    ) {
        let alpha = config.alpha;
        let eps = config.epsilon;
        let PrimeComputer {
            best,
            members,
            queue,
            candidates,
            found,
            degree_counts,
            order,
            last,
            ..
        } = self;
        debug_assert!(queue.is_empty());
        let mut mark = |t: NodeId| members[t as usize >> 6] |= 1u64 << (t & 63);
        let mut work = SolveWork::default();

        // Interior = every node reached with probability ≥ ε; hubs, like
        // sub-ε frontier nodes, are members only (absorbers). For the
        // call's duration every hub's `best` reads +∞, so no walk weight
        // improves it and the relax loop needs no hub test; a hub source
        // keeps its 1.0. Every interior row is visited once to mark its
        // targets as members — expanded if its walk weight stays ≥ ε. A
        // popped entry whose probability no longer matches `best` is
        // stale; a node improved after its pop (possible only below the
        // monotone-width α threshold) re-enqueues itself on the
        // improvement, so `best` always converges to the exact per-node
        // maximum.
        let ids = hubs.ids();
        let hub_ids = &ids[..ids.partition_point(|&h| (h as usize) < best.len())];
        for &h in hub_ids {
            best[h as usize] = f64::INFINITY;
        }
        best[source as usize] = 1.0;
        mark(source);
        let mut discovered = 0;
        queue.configure(alpha);
        queue.push(1.0, source);
        work.pushes = 1;
        while let Some((p, v)) = queue.pop() {
            work.pops += 1;
            if p != best[v as usize] {
                work.stale_pops += 1;
                continue;
            }
            let d = src.degree(v);
            if d == 0 {
                continue;
            }
            let w = p * (1.0 - alpha) / d as f64;
            if w < eps {
                src.visit(v, &mut mark);
                continue;
            }
            // Every target is written to the candidate list, which
            // advances only past improved ones (the batch enqueued at
            // `w`), and `best` takes the larger weight by a select, not a
            // branch. A source with ordered probes lists first visits the
            // same way.
            if candidates.len() < d {
                candidates.resize(d, (0.0, 0));
            }
            if Src::ORDERED_PROBES && found.len() < discovered + d {
                found.resize(discovered + d, 0);
            }
            let mut improved_count = 0;
            src.visit(v, |t| {
                mark(t);
                let b = best[t as usize];
                let improved = w > b;
                candidates[improved_count] = (w, t);
                improved_count += usize::from(improved);
                if Src::ORDERED_PROBES {
                    found[discovered] = t;
                    discovered += usize::from(improved & (b == 0.0));
                }
                best[t as usize] = if improved { w } else { b };
            });
            work.relaxations += d;
            work.pushes += improved_count;
            queue.push_batch(w, &candidates[..improved_count]);
        }
        for &h in hub_ids {
            best[h as usize] = 0.0;
        }
        best[source as usize] = 1.0;

        // The sweep list: the source, then the interior by descending
        // global out-degree, ties by id — a deterministic order independent
        // of pop order. High-degree nodes are the ones every other row
        // points at, so sweeping them first carries mass forward within a
        // pass. The membership walk lists the interior in ascending id
        // order, written at every member and advanced past interior ones;
        // a stable counting sort by descending degree then keeps id order
        // within each degree. Degrees are kept in `best` as `degree + 1`:
        // from here on `best` only has to stay positive at the interior.
        let mut max_degree = 0;
        if Src::ORDERED_PROBES {
            max_degree = count_degrees(src, &found[..discovered], best, degree_counts);
        }
        let mut interior = 0;
        for (w, &word) in members.iter().enumerate() {
            let mut bits = word;
            let count = bits.count_ones() as usize;
            work.members += count;
            if found.len() < interior + count {
                found.resize(interior + count, 0);
            }
            while bits != 0 {
                let v = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                found[interior] = v as NodeId;
                interior += usize::from((best[v] > 0.0) & (v != source as usize));
            }
        }
        if Src::ORDERED_PROBES {
            debug_assert_eq!(interior, discovered);
        } else {
            max_degree = count_degrees(src, &found[..interior], best, degree_counts);
        }
        order.clear();
        order.resize(interior + 1, source);
        if interior > 0 {
            let mut at = 1;
            for count in degree_counts[..=max_degree].iter_mut().rev() {
                (*count, at) = (at, at + *count);
            }
            for &v in &found[..interior] {
                let slot = &mut degree_counts[best[v as usize] as usize - 1];
                order[*slot as usize] = v;
                *slot += 1;
            }
            degree_counts[..=max_degree].fill(0);
        }
        work.interior = order.len();
        *last = work;
    }

    /// Records a solve's counters beside the most recent search's, then
    /// emits the solved subgraph's clipped entries into `self.entries` in
    /// ascending id order, walking the membership bitmap and resetting
    /// every slot it visits. `best` must be positive exactly at the
    /// interior.
    fn emit(
        &mut self,
        work: SolveWork,
        source: NodeId,
        source_is_hub: bool,
        alpha: f64,
        clip: f64,
    ) {
        self.last = SolveWork {
            sweeps: work.sweeps,
            settles: work.settles,
            leftover: work.leftover,
            ..self.last
        };
        let PrimeComputer {
            best,
            mass,
            residual,
            members,
            entries,
            emitted,
            ..
        } = self;
        // Every member emits α × its interior mass or its absorber
        // residual, chosen by `best`. The choice is a blend, `m·f + r·(1−f)`
        // with `f` 1 or 0, not a select: the compiler turns a select
        // between two loads into a branch on them. Both are finite and
        // non-negative, so the blend is exactly the chosen one. The source
        // is the one special case, settled up front: a hub source emits
        // its returns (its residual slot), a non-hub source its mass less
        // the trivial tour.
        let s = source as usize;
        if source_is_hub {
            best[s] = 0.0;
        } else {
            mass[s] -= 1.0;
        }
        let mut n = 0;
        for (w, word) in members.iter_mut().enumerate() {
            let mut bits = *word;
            if bits == 0 {
                continue;
            }
            *word = 0;
            let room = n + bits.count_ones() as usize;
            if entries.len() < room {
                entries.resize(room, (0, 0.0));
            }
            while bits != 0 {
                let v = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let f = f64::from(u8::from(best[v] > 0.0));
                let score = alpha * (mass[v] * f + residual[v] * (1.0 - f));
                entries[n] = (v as NodeId, score);
                n += usize::from((score >= clip) & (score > 0.0));
                best[v] = 0.0;
                mass[v] = 0.0;
                residual[v] = 0.0;
            }
        }
        *emitted = n;
    }

    /// The in-memory one-shot both families share: search, then solve and
    /// emit on the graph's CSR. Returns the subgraph's node count.
    fn prime_in_place(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
        clip: f64,
        leave: f64,
    ) -> usize {
        let mut csr = graph.out_csr();
        self.search(&mut csr, hubs, source, config);
        let source_is_hub = hubs.is_hub(source);
        let rows = GraphRows {
            csr,
            order: &self.order,
        };
        let work = sweep(
            &rows,
            self.order.len(),
            source_is_hub,
            &mut self.mass,
            &mut self.residual,
            config,
            leave,
        );
        self.emit(work, source, source_is_hub, config.alpha, clip);
        self.last.members
    }

    /// Searches `source`'s prime subgraph and copies its interior's rows
    /// into `self.local`, in sweep order, one probe per interior node;
    /// absorbers are listed as the rows first reach them. The membership
    /// bitmap is marked again from the copy, so it holds exactly the nodes
    /// the copied rows reach — under a fault cap a copy's probe may be
    /// refused, or granted, where the search's was not.
    fn search_and_copy<Src: RowSource>(
        &mut self,
        src: &mut Src,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
    ) {
        self.search(src, hubs, source, config);
        let PrimeComputer {
            members,
            order,
            local,
            ..
        } = self;
        members.fill(0);
        let mut mark = |t: NodeId| {
            let (word, bit) = (&mut members[t as usize >> 6], 1u64 << (t & 63));
            let first = *word & bit == 0;
            *word |= bit;
            first
        };
        local.source = source;
        local.source_is_hub = hubs.is_hub(source);
        local.nodes.clear();
        local.nodes.extend_from_slice(order);
        local.num_interior = order.len();
        for &v in order.iter() {
            mark(v);
        }
        local.offsets.clear();
        local.offsets.push(0);
        local.targets.clear();
        let PrimeSubgraph {
            nodes,
            offsets,
            targets,
            ..
        } = local;
        for &v in order.iter() {
            src.visit(v, |t| {
                if mark(t) {
                    nodes.push(t);
                }
                targets.push(t);
            });
            offsets.push(targets.len() as u32);
        }
    }

    /// Extracts the prime subgraph of `source` (paper §5.1): best-first
    /// expansion of hub-free walks, pruned below `config.epsilon`.
    pub fn extract(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
    ) -> PrimeSubgraph {
        self.search_and_copy(&mut graph.out_csr(), hubs, source, config);
        // Every member is in `nodes`, so clearing whole bitmap words
        // clears exactly this subgraph's bits.
        for &v in &self.local.nodes {
            self.best[v as usize] = 0.0;
            self.members[v as usize >> 6] = 0;
        }
        self.local.clone()
    }

    /// Solves for the prime PPV of `sub.source` over the subgraph
    /// (threshold-gated Gauss–Seidel sweeps to `solve_tolerance` — the
    /// stored family). Returns the **trivial-tour-excluded** reachabilities
    /// `r̊⁰` (see module docs), clipped at `clip`. `sub` must come from a
    /// graph of at most the computer's `n` nodes.
    ///
    /// It runs no search: [`PrimeComputer::last_solve`] then pairs this
    /// solve's counters with the computer's most recent search's (the
    /// [`PrimeComputer::extract`] that made `sub`, in the usual pipeline).
    pub fn solve(&mut self, sub: &PrimeSubgraph, config: &Config, clip: f64) -> PrimePpv {
        for &v in &sub.nodes {
            self.members[v as usize >> 6] |= 1u64 << (v & 63);
        }
        for &v in &sub.nodes[..sub.num_interior] {
            self.best[v as usize] = 1.0;
        }
        let work = sweep(
            sub,
            sub.num_interior,
            sub.source_is_hub,
            &mut self.mass,
            &mut self.residual,
            config,
            0.0,
        );
        self.emit(work, sub.source, sub.source_is_hub, config.alpha, clip);
        self.entries_to_ppv()
    }

    /// The stored family's one-shot: search, then solve on the graph's own
    /// CSR (no [`PrimeSubgraph`] is built), swept to `solve_tolerance` and
    /// clipped at `clip`. Returns the PPV and the prime subgraph's node
    /// count; the returned entry vector is its only allocation once warm.
    pub fn prime_ppv(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
        clip: f64,
    ) -> (PrimePpv, usize) {
        let size = self.prime_in_place(graph, hubs, source, config, clip, 0.0);
        (self.entries_to_ppv(), size)
    }

    /// Like [`PrimeComputer::prime_ppv_into`] — the query-time family —
    /// over any [`RowSource`], returning an owned PPV and the number of
    /// nodes the copied rows reach. Each interior row is probed twice,
    /// once by the search and once to copy it, and the copy is swept.
    pub fn prime_ppv_from<Src: RowSource>(
        &mut self,
        src: &mut Src,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
    ) -> (PrimePpv, usize) {
        self.search_and_copy(src, hubs, source, config);
        let sub = &self.local;
        let work = sweep(
            sub,
            sub.num_interior,
            sub.source_is_hub,
            &mut self.mass,
            &mut self.residual,
            config,
            config.delta,
        );
        let size = sub.num_nodes();
        self.emit(work, source, sub.source_is_hub, config.alpha, 0.0);
        (self.entries_to_ppv(), size)
    }

    /// The query-time family's one-shot: search, then solve on the graph's
    /// own CSR in the reused scratch and return the sorted entry list as a
    /// borrowed slice — **zero heap allocations** once the workspace is
    /// warm. This is what the online engine runs for cold non-hub queries:
    /// unclipped (the result is never stored), and swept only until the
    /// un-pushed residual is at most `config.delta` (module docs; exact
    /// when `δ = 0`). The slice is valid until the next call on this
    /// computer.
    pub fn prime_ppv_into(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        source: NodeId,
        config: &Config,
    ) -> (&[(NodeId, f64)], usize) {
        let size = self.prime_in_place(graph, hubs, source, config, 0.0, config.delta);
        (&self.entries[..self.emitted], size)
    }

    fn entries_to_ppv(&self) -> PrimePpv {
        PrimePpv {
            entries: SparseVector::from_sorted(self.entries[..self.emitted].to_vec()),
        }
    }

    /// What the most recent search and solve on this computer cost — any
    /// entry point of either family. The kernel records the counters and
    /// the residual it left as it exits, before any scratch is reset.
    pub fn last_solve(&self) -> SolveWork {
        self.last
    }
}

/// What the settle passes of a [`DeltaPush`] have done so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaOutcome {
    /// Σ|residual| (mass units) still pending after the last pass — what
    /// the push extent has left behind so far, plus anything abandoned by
    /// the safety valve. Because one unit of residual mass can contribute
    /// at most one unit of score-L1 after α-scaling (the geometric series
    /// `α · Σ (1-α)^i = 1`), this is a sound bound on the score-L1 the
    /// deposits fail to account for.
    pub leftover: f64,
    /// Node settles performed.
    pub settles: usize,
    /// Whether the settle safety valve tripped (the leftover still bounds
    /// the abandoned mass, so the patch remains certified).
    pub truncated: bool,
}

/// [`DeltaPush`] flag: the node is on the touched list.
const TOUCHED: u8 = 1;
/// [`DeltaPush`] flag: the node is on the FIFO queue.
const QUEUED: u8 = 2;

/// Signed-residual forward push over the full graph with hub absorption —
/// the delta counterpart of the prime solve's sweeps, used by
/// [`crate::dynamic`] to patch stored prime PPVs after an edge change
/// instead of re-extracting and re-solving their subgraphs.
///
/// The solve maintains `ρ = e_s + (1-α)/d · Pᵀm − m` ≡ 0 over settled mass
/// `m` and residual `ρ`. Changing the out-row of a tail `u` perturbs only
/// `Pᵀ`'s column block for `u`, so the invariant is restored by injecting
/// `m(u) · (w_new − w_old)` at `u`'s old and new targets and pushing the
/// signed residual forward: non-hub nodes re-propagate, hubs (including
/// the source hub — its returns absorb) and dangling nodes do not. The
/// push is linear in what is injected, so [`crate::dynamic`] injects the
/// *unit* perturbation of a tail once and scales the deposits by each
/// holder's `m(u)`. Every settle deposits `α·r` into the node's score
/// delta, exactly like the forward solve; what is never settled is
/// [`DeltaOutcome::leftover`], charged against the error budget.
///
/// The extent is the caller's: the push descends a threshold ladder that
/// depends on the injected mass alone, one [`DeltaPush::descend`] per
/// rung, and the deposits can be read in id order
/// ([`DeltaPush::for_each_deposit`]) between rungs without disturbing
/// them. Graph-sized state is 17 bytes per node: the residual and the
/// deposits (8 bytes each) and one flag byte, which is all the touched and
/// queued bookkeeping there is.
#[derive(Debug)]
pub struct DeltaPush {
    residual: Vec<f64>,
    flags: Vec<u8>,
    deposits: ScoreScratch,
    queue: std::collections::VecDeque<NodeId>,
    /// Every node whose residual was ever nonzero since the last reset,
    /// each once.
    touched: Vec<NodeId>,
    /// The threshold of the ladder's next rung.
    threshold: f64,
}

impl DeltaPush {
    /// A push scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        DeltaPush {
            residual: vec![0.0; n],
            flags: vec![0; n],
            deposits: ScoreScratch::new(n),
            queue: std::collections::VecDeque::new(),
            touched: Vec::new(),
            threshold: 0.0,
        }
    }

    /// Number of node slots.
    pub fn capacity(&self) -> usize {
        self.residual.len()
    }

    /// Lists `v` as touched unless it already is.
    #[inline]
    fn touch(&mut self, v: NodeId) {
        let flags = &mut self.flags[v as usize];
        if *flags & TOUCHED == 0 {
            *flags |= TOUCHED;
            self.touched.push(v);
        }
    }

    /// Accumulates signed residual mass at `v` (call before
    /// [`DeltaPush::start_ladder`]; repeated injections at one node sum).
    #[inline]
    pub fn inject(&mut self, v: NodeId, mass: f64) {
        if mass == 0.0 {
            return;
        }
        self.touch(v);
        self.residual[v as usize] += mass;
    }

    /// Σ|residual| currently pending (mass units) — before any pass, the
    /// injected mass: the a-priori bound on the score-L1 effect of the
    /// pending perturbation.
    pub fn pending_mass(&self) -> f64 {
        self.touched
            .iter()
            .map(|&v| self.residual[v as usize].abs())
            .sum()
    }

    /// Starts the threshold ladder over what has been injected: rung `j`
    /// settles every residual of at least `P₀·2^-j`, where `P₀` is the
    /// injected mass. Returns rung 0 — the injection itself, nothing
    /// settled, `leftover = P₀` — and queues what rung 1 settles.
    pub fn start_ladder(&mut self) -> DeltaOutcome {
        let injected = self.pending_mass();
        self.threshold = injected;
        self.queue_next_rung();
        DeltaOutcome {
            leftover: injected,
            ..DeltaOutcome::default()
        }
    }

    /// Settles the next rung of the ladder in one FIFO pass — every queued
    /// residual, and every one the pass itself lifts over the rung's
    /// threshold — then records the pending mass in `outcome.leftover`.
    /// Settles accumulate in `outcome.settles`; once they reach
    /// `max_settles` the pass stops and sets `outcome.truncated` (the rest
    /// stays residual, inside the leftover).
    pub fn descend(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        alpha: f64,
        max_settles: usize,
        outcome: &mut DeltaOutcome,
    ) {
        debug_assert!(self.capacity() >= graph.num_nodes());
        let threshold = self.threshold;
        while let Some(x) = self.queue.pop_front() {
            self.flags[x as usize] &= !QUEUED;
            let r = self.residual[x as usize];
            if r == 0.0 {
                continue;
            }
            if outcome.settles >= max_settles {
                // Safety valve: leave the rest as residual (it stays in
                // the leftover, so the bound still holds).
                outcome.truncated = true;
                break;
            }
            outcome.settles += 1;
            self.residual[x as usize] = 0.0;
            self.deposits.add(x, alpha * r);
            if hubs.is_hub(x) {
                continue; // absorbed (source returns land here too)
            }
            let d = graph.out_degree(x);
            if d == 0 {
                continue;
            }
            let share = r * (1.0 - alpha) / d as f64;
            for &t in graph.out_neighbors(x) {
                self.touch(t);
                let slot = &mut self.residual[t as usize];
                *slot += share;
                let flags = &mut self.flags[t as usize];
                if slot.abs() >= threshold && *flags & QUEUED == 0 {
                    *flags |= QUEUED;
                    self.queue.push_back(t);
                }
            }
        }
        outcome.leftover = self.queue_next_rung();
    }

    /// Halves the threshold and, in one scan of the touched list, queues
    /// every residual that reaches it and sums the pending mass.
    fn queue_next_rung(&mut self) -> f64 {
        self.threshold *= 0.5;
        let mut pending = 0.0;
        for &v in &self.touched {
            let r = self.residual[v as usize].abs();
            pending += r;
            let flags = &mut self.flags[v as usize];
            if r >= self.threshold && *flags & QUEUED == 0 {
                *flags |= QUEUED;
                self.queue.push_back(v);
            }
        }
        pending
    }

    /// Calls `f(v, α·settled)` for every nonzero deposit, in ascending `v`,
    /// leaving the push as it is — the passes may continue afterwards.
    pub fn for_each_deposit(&mut self, f: impl FnMut(NodeId, f64)) {
        self.deposits.for_each(f);
    }

    /// Discards pending residuals and deposits and resets the scratch for
    /// the next injection.
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.residual[v as usize] = 0.0;
            self.flags[v as usize] = 0;
        }
        self.touched.clear();
        self.queue.clear();
        self.deposits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastppv_baselines::naive::partition_by_hub_length;
    use fastppv_graph::builder::from_edges;
    use fastppv_graph::gen::barabasi_albert;
    use fastppv_graph::toy;

    fn toy_hubs() -> HubSet {
        HubSet::from_ids(8, toy::PAPER_HUBS.to_vec())
    }

    /// Descends the threshold ladder until the pending mass fits
    /// `allowance` — one holder's extent in [`crate::dynamic`].
    fn descend_until(
        push: &mut DeltaPush,
        g: &Graph,
        hubs: &HubSet,
        allowance: f64,
        max: usize,
    ) -> DeltaOutcome {
        let mut outcome = push.start_ladder();
        while outcome.leftover > allowance && !outcome.truncated {
            push.descend(g, hubs, 0.15, max, &mut outcome);
        }
        outcome
    }

    #[test]
    fn delta_push_goes_as_far_as_the_allowance_demands() {
        let g = barabasi_albert(400, 3, 4);
        let hubs = HubSet::from_ids(400, (0..20).collect());
        let mut push = DeltaPush::new(400);
        let mut run = |allowance: f64| {
            push.inject(57, 1e-3);
            push.inject(211, -4e-4);
            let outcome = descend_until(&mut push, &g, &hubs, allowance, usize::MAX);
            let mut deposits = Vec::new();
            push.for_each_deposit(|v, d| deposits.push((v, d)));
            // Reading the deposits leaves them in place, in id order.
            let mut again = Vec::new();
            push.for_each_deposit(|v, d| again.push((v, d)));
            assert_eq!(deposits, again);
            assert!(deposits.windows(2).all(|w| w[0].0 < w[1].0));
            push.reset();
            (outcome, deposits.len())
        };
        // Inside the allowance: nothing is pushed, everything is leftover.
        let (fits, deposited) = run(2e-3);
        assert_eq!((fits.settles, deposited), (0, 0));
        assert!((fits.leftover - 1.4e-3).abs() < 1e-15);
        // Beyond it: pushed until the leftover fits, and a tighter
        // allowance costs more settles.
        let mut last_settles = 0;
        for allowance in [1e-3, 1e-4, 1e-5, 1e-6] {
            let (outcome, deposited) = run(allowance);
            assert!(!outcome.truncated);
            assert!(outcome.leftover <= allowance, "{outcome:?}");
            assert!(deposited > 0);
            assert!(outcome.settles > last_settles, "{outcome:?}");
            last_settles = outcome.settles;
        }
        // The safety valve reports what it abandoned.
        push.inject(57, 1e-3);
        let cut = descend_until(&mut push, &g, &hubs, 1e-9, 5);
        assert!(cut.truncated && cut.settles == 5 && cut.leftover > 1e-9);
        push.reset();
        assert_eq!(push.pending_mass(), 0.0);
    }

    #[test]
    fn a_residual_cancelled_to_zero_is_pending_once() {
        // The third injection finds the slot at exactly 0 with nothing
        // deposited and nothing queued; it must not list the node again,
        // or the pending mass counts it twice.
        let mut push = DeltaPush::new(8);
        push.inject(3, 1e-3);
        push.inject(3, -1e-3);
        push.inject(3, 2e-3);
        assert_eq!(push.pending_mass(), 2e-3);
    }

    #[test]
    fn bucket_queue_pops_in_nonincreasing_probability_order() {
        let mut q = BucketQueue::new();
        q.configure(0.15);
        let probs = [0.9, 0.001, 0.5, 0.25, 1.0, 3e-7, 0.125, 0.06];
        for (i, &p) in probs.iter().enumerate() {
            q.push(p, i as NodeId);
        }
        assert_eq!(q.len(), probs.len());
        let mut last = f64::INFINITY;
        let mut popped = 0;
        while let Some((p, _)) = q.pop() {
            // Quantized order: p may only drop below the previous bucket's
            // floor, never rise above the previous value's bucket. With
            // these widely spaced probabilities order is strict.
            assert!(p <= last, "popped {p} after {last}");
            last = p;
            popped += 1;
        }
        assert_eq!(popped, probs.len());
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_queue_one_step_decay_moves_at_least_one_bucket() {
        // The monotone guarantee: for α = 0.15, p and p·(1-α)/d must never
        // share a bucket (d ≥ 1), across many magnitudes.
        let mut q = BucketQueue::new();
        q.configure(0.15);
        let mut p = 1.0f64;
        while p > 1e-12 {
            let w = p * 0.85;
            assert!(q.key(w) > q.key(p), "p {p} and w {w} share a bucket");
            p = w;
        }
    }

    #[test]
    fn bucket_queue_clear_resets_between_uses() {
        let mut q = BucketQueue::new();
        q.clear(); // never-pushed queue: clear must be a no-op, not a panic
        q.configure(0.15);
        q.clear(); // configured-but-unpushed: same
        q.push(0.5, 1);
        q.push(0.25, 2);
        q.clear();
        assert!(q.is_empty());
        q.configure(0.15);
        q.push(1.0, 7);
        assert_eq!(q.pop(), Some((1.0, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extraction_on_toy_graph_matches_figure_3() {
        // G'(a): interior {a, h, g?}: tours from a avoiding hubs {b,d,f}:
        // a→c, a→h(→c); b, d, f are border hubs; c, e reachable sinks.
        let g = toy::graph();
        let mut pc = PrimeComputer::new(8);
        let sub = pc.extract(&g, &toy_hubs(), toy::A, &Config::default());
        assert_eq!(sub.source, toy::A);
        assert!(!sub.source_is_hub);
        let interior: Vec<NodeId> = sub.nodes[..sub.num_interior].to_vec();
        assert!(interior.contains(&toy::A));
        assert!(interior.contains(&toy::H));
        assert!(interior.contains(&toy::C)); // c interior (self-loop variant)
        assert!(!interior.contains(&toy::B));
        assert!(!interior.contains(&toy::D));
        assert!(!interior.contains(&toy::F));
        // b, d, f appear as absorbers.
        let absorbers: Vec<NodeId> = sub.nodes[sub.num_interior..].to_vec();
        for h in toy::PAPER_HUBS {
            assert!(absorbers.contains(&h), "hub {h} must be a border");
        }
    }

    #[test]
    fn interior_numbering_is_source_then_degree_descending() {
        let g = barabasi_albert(400, 3, 9);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 30, 0);
        let q = (0..400u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let mut pc = PrimeComputer::new(400);
        let sub = pc.extract(&g, &hubs, q, &Config::default());
        assert_eq!(sub.nodes[0], q);
        for w in sub.nodes[1..sub.num_interior].windows(2) {
            let (da, db) = (g.out_degree(w[0]), g.out_degree(w[1]));
            assert!(
                da > db || (da == db && w[0] < w[1]),
                "interior numbering must be degree-descending with id ties"
            );
        }
        // Each row is the node's whole out-row, so its length is the
        // propagation denominator.
        for (u, &v) in sub.nodes[..sub.num_interior].iter().enumerate() {
            assert_eq!(sub.row(u).len(), g.out_degree(v));
        }
    }

    #[test]
    fn fused_path_is_bit_identical_to_materialized_path() {
        let g = barabasi_albert(500, 3, 77);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 40, 0);
        let config = Config::default().with_epsilon(1e-7);
        let mut pc = PrimeComputer::new(500);
        for q in [0u32, 17, 123, 499] {
            // The stored family, under any configuration.
            let sub = pc.extract(&g, &hubs, q, &config);
            let materialized = pc.solve(&sub, &config, config.clip);
            let (fused, size) = pc.prime_ppv(&g, &hubs, q, &config, config.clip);
            assert_eq!(size, sub.num_nodes(), "query {q}");
            assert_eq!(materialized, fused, "query {q}: fused must be exact");
            // The query-time family is the stored one, unclipped, once
            // δ = 0 disarms its early stop.
            let (unclipped, _) = pc.prime_ppv(&g, &hubs, q, &config, 0.0);
            let (slice, size) = pc.prime_ppv_into(&g, &hubs, q, &config.with_delta(0.0));
            assert_eq!(size, sub.num_nodes(), "query {q}");
            assert_eq!(slice, unclipped.entries.entries(), "query {q}");
        }
    }

    #[test]
    fn query_time_solve_stops_at_the_residual_delta_allows() {
        let g = barabasi_albert(500, 3, 77);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 40, 0);
        let config = Config::default().with_epsilon(1e-7);
        let mut pc = PrimeComputer::new(500);
        for q in [17u32, 123, 499] {
            let (full, _) = pc.prime_ppv(&g, &hubs, q, &config, 0.0);
            let stored = pc.last_solve();
            assert!(
                stored.leftover <= config.solve_tolerance * 500.0,
                "{stored:?}"
            );
            let (early, _) = pc.prime_ppv_into(&g, &hubs, q, &config);
            let early = early.to_vec();
            let online = pc.last_solve();
            // Fewer sweeps, at most δ left behind …
            assert!(online.sweeps < stored.sweeps, "{online:?} vs {stored:?}");
            assert!(online.settles < stored.settles, "{online:?} vs {stored:?}");
            assert!(
                online.leftover > 0.0 && online.leftover <= config.delta,
                "{online:?}"
            );
            // … and only settled mass emitted: an entry-wise lower bound
            // whose missing score is at most the residual left.
            for &(v, s) in &early {
                assert!(s <= full.entries.get(v), "query {q} node {v}");
            }
            let missing = full.entries.l1_norm() - early.iter().map(|e| e.1).sum::<f64>();
            assert!(
                missing > 0.0 && missing <= online.leftover + 1e-12,
                "query {q}: {missing} missing, {online:?}"
            );
        }
    }

    #[test]
    fn prime_ppv_matches_naive_t0_partition() {
        let g = toy::graph();
        let hubs = toy_hubs();
        let config = Config::exhaustive();
        let mut pc = PrimeComputer::new(8);
        let (ppv, _) = pc.prime_ppv(&g, &hubs, toy::A, &config, 0.0);
        let parts = partition_by_hub_length(&g, toy::A, hubs.mask(), 0.15, 1e-13);
        // T0 mass per endpoint == prime PPV + trivial tour at the source.
        for v in g.nodes() {
            let mut expected = parts[0][v as usize];
            if v == toy::A {
                expected -= 0.15; // trivial tour excluded from storage
            }
            assert!(
                (ppv.entries.get(v) - expected).abs() < 1e-7,
                "node {v}: got {} want {expected}",
                ppv.entries.get(v)
            );
        }
    }

    #[test]
    fn hub_source_absorbs_returns() {
        // 0 <-> 1 with 0 a hub: tours from 0 with hub length 0 are exactly
        // 0→1 (mass α(1-α)); the return 0→1→0 ends at the source with the
        // middle nodes hub-free — wait, the return ends AT the hub source:
        // endpoint excluded, so 0→1→0 is also T0 with mass α(1-α)².
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let hubs = HubSet::from_ids(2, vec![0]);
        let config = Config::exhaustive();
        let mut pc = PrimeComputer::new(2);
        let (ppv, _) = pc.prime_ppv(&g, &hubs, 0, &config, 0.0);
        let a = 0.15f64;
        // Entry at 1: tours 0→1, and nothing else hub-free (0→1→0→1 passes
        // through hub 0 in the middle).
        assert!((ppv.entries.get(1) - a * (1.0 - a)).abs() < 1e-12);
        // Entry at 0 (returns): 0→1→0 only.
        assert!((ppv.entries.get(0) - a * (1.0 - a) * (1.0 - a)).abs() < 1e-12);
    }

    #[test]
    fn non_hub_source_repropagates_returns() {
        // 0 <-> 1, no hubs: prime PPV covers everything; entries (minus the
        // trivial tour) must match the exact PPV.
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let hubs = HubSet::empty(2);
        let config = Config::exhaustive();
        let mut pc = PrimeComputer::new(2);
        let (ppv, _) = pc.prime_ppv(&g, &hubs, 0, &config, 0.0);
        let exact = fastppv_baselines::exact_ppv(&g, 0, fastppv_baselines::ExactOptions::default());
        assert!((ppv.entries.get(0) - (exact[0] - 0.15)).abs() < 1e-9);
        assert!((ppv.entries.get(1) - exact[1]).abs() < 1e-9);
    }

    #[test]
    fn epsilon_prunes_subgraph() {
        let g = barabasi_albert(500, 3, 1);
        let hubs = HubSet::empty(500);
        let mut pc = PrimeComputer::new(500);
        let deep = pc.extract(&g, &hubs, 0, &Config::default().with_epsilon(1e-10));
        let shallow = pc.extract(&g, &hubs, 0, &Config::default().with_epsilon(1e-3));
        assert!(shallow.num_interior < deep.num_interior);
        assert!(shallow.num_nodes() <= deep.num_nodes());
    }

    #[test]
    fn more_hubs_shrink_subgraphs() {
        let g = barabasi_albert(500, 3, 1);
        let mut pc = PrimeComputer::new(500);
        let none = pc.extract(&g, &HubSet::empty(500), 3, &Config::default());
        let some = pc.extract(
            &g,
            &crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 50, 0),
            3,
            &Config::default(),
        );
        assert!(some.num_interior < none.num_interior);
    }

    #[test]
    fn clip_drops_small_entries() {
        let g = barabasi_albert(300, 3, 5);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 20, 0);
        let mut pc = PrimeComputer::new(300);
        let (unclipped, _) = pc.prime_ppv(&g, &hubs, 0, &Config::default(), 0.0);
        let (clipped, _) = pc.prime_ppv(&g, &hubs, 0, &Config::default(), 1e-3);
        assert!(clipped.entries.len() < unclipped.entries.len());
        assert!(clipped.entries.entries().iter().all(|&(_, s)| s >= 1e-3));
    }

    #[test]
    fn workspace_reuse_is_clean() {
        // Two different extractions from the same computer must not leak
        // state into each other.
        let g = toy::graph();
        let hubs = toy_hubs();
        let config = Config::default();
        let mut pc = PrimeComputer::new(8);
        let first = pc.extract(&g, &hubs, toy::A, &config);
        let _second = pc.extract(&g, &hubs, toy::G, &config);
        let third = pc.extract(&g, &hubs, toy::A, &config);
        assert_eq!(first.nodes, third.nodes);
        assert_eq!(first.offsets, third.offsets);
        assert_eq!(first.targets, third.targets);
        assert_eq!(first.num_interior, third.num_interior);
    }

    #[test]
    fn solve_scratch_reuse_is_clean() {
        // The solve scratch lives in the computer; interleaved solves of
        // different subgraphs must not contaminate each other.
        let g = barabasi_albert(300, 3, 5);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 20, 0);
        let config = Config::default();
        let mut pc = PrimeComputer::new(300);
        let sub_a = pc.extract(&g, &hubs, 0, &config);
        let sub_b = pc.extract(&g, &hubs, 7, &config);
        let first_a = pc.solve(&sub_a, &config, 0.0);
        let _b = pc.solve(&sub_b, &config, 0.0);
        let again_a = pc.solve(&sub_a, &config, 0.0);
        assert_eq!(first_a, again_a);
    }

    /// The graph's CSR behind the ordered-probe search a disk-resident
    /// source takes.
    struct OrderedCsr<'a>(CsrView<'a>);

    impl RowSource for OrderedCsr<'_> {
        const ORDERED_PROBES: bool = true;

        fn degree(&mut self, v: NodeId) -> usize {
            self.0.degree(v)
        }

        fn visit<F: FnMut(NodeId)>(&mut self, v: NodeId, f: F) {
            self.0.visit(v, f)
        }
    }

    #[test]
    fn generic_access_path_matches_csr_path() {
        // The search a disk-resident graph takes (interior degrees read in
        // discovery order) and its copied rows must agree with the CSR
        // one-shot exactly: same subgraph size, same PPV bits.
        let g = barabasi_albert(300, 3, 41);
        let hubs = crate::hubs::select_hubs(&g, crate::hubs::HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let mut pc = PrimeComputer::new(300);
        for q in [0u32, 50, 123] {
            let (fast_slice, fast_size) = pc.prime_ppv_into(&g, &hubs, q, &config);
            let fast_slice = fast_slice.to_vec();
            let mut ordered = OrderedCsr(g.out_csr());
            let (ordered_ppv, ordered_size) = pc.prime_ppv_from(&mut ordered, &hubs, q, &config);
            assert_eq!(fast_size, ordered_size, "query {q}");
            assert_eq!(fast_slice, ordered_ppv.entries.entries(), "query {q}");
        }
    }

    #[test]
    fn dangling_interior_node_is_handled() {
        let g = toy::graph_raw(); // c, e dangling
        let hubs = toy_hubs();
        let mut pc = PrimeComputer::new(8);
        let (ppv, _) = pc.prime_ppv(&g, &hubs, toy::A, &Config::exhaustive(), 0.0);
        // c is interior (non-hub, reachable) with out-degree 0.
        assert!(ppv.entries.get(toy::C) > 0.0);
    }
}
