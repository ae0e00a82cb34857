//! Incremental index maintenance under graph updates.
//!
//! The paper's future work (§7) sketches the idea: "a simple idea to process
//! graph updates is to only re-compute the affected prime PPVs, without
//! touching the unaffected ones". This module implements it — twice.
//!
//! **Invalidation** answers "which hubs can this batch have moved", and
//! the two refresh modes ask it differently.
//!
//! *The exact path searches.* A hub `h`'s prime PPV depends only on its
//! prime subgraph `G'(h)`, and an edge change at tail `u` can alter `G'(h)`
//! only if `u` is an *expanded* (propagating) node of `G'(h)` — i.e. there
//! is a hub-free walk `h ⇝ u` with probability ≥ ε and `u` is not itself a
//! hub (hubs absorb; nothing beyond them is explored, and entries *at* `u`
//! only depend on the out-degrees of nodes strictly before `u`).
//! [`affected_hubs`] finds that set with a reverse max-probability search;
//! [`ReverseScratch`] seeds one such search with a whole batch of tails at
//! once (the fixed point of max-relaxation from all seeds is exactly the
//! union of the per-seed fixed points). For deletions, walks that existed
//! only in the old graph matter too, so the search runs on both graphs.
//! This is the dependence set of [`DeltaConfig::exact`] (and of a
//! node-growing batch): bit-identity with a rebuild needs dependence at
//! every magnitude down to ε, far below the clip, which stored entries
//! cannot show.
//!
//! *The delta path asks the stored vector.* A patch restores the push
//! invariant of the *maintained state* — the stored entries read as
//! settled mass (below) — and a row swap at `u` perturbs that invariant by
//! exactly `m̂(u)·(1-α)·(new_row − old_row)`. A hub whose stored vector has
//! no entry at `u` has `m̂(u) = 0`: the swap is invisible to its maintained
//! state, there is nothing to inject, push, merge or charge, and the error
//! accounting — derived from that invariant, never from a dirty mask —
//! holds with the hub untouched. (Zhang, Lofgren & Goel's dynamic forward
//! push makes the same observation: after an edge change at `u` only the
//! residual at `u` moves, in proportion to the current estimate there.) So
//! a delta refresh runs no graph search: per held hub and tail it makes
//! one binary search in the hub's sorted ids ([`PpvRef::score_of`]; the
//! hub's own row carries unit mass by construction), `O(hubs · tails ·
//! log len)` per batch. On BA-20k with 800 hubs that is ≈ 150–190 µs per
//! single-edge event (cold segments, a 2-vCPU x86-64 Xeon), where the two
//! ε-searches cost ≈ 1.7 ms and named 573 hubs, 99 % of which then found
//! no entry at the tail. A node → hubs posting list would make the probe
//! `O(holders)`; it is the follow-up only if hub counts reach 10⁵. At the
//! default clip the two oracles name the same hubs that have work to do.
//! With `clip = 0` the probe is strictly *more* conservative: a
//! hub stores mass at every node its extraction reached, including ε-leaves
//! it never expanded, which the search skips; such a hub is now charged
//! the (tiny) perturbation as an unpushed no-op — stored PPV untouched,
//! spend grown by at most one patch allowance — where it used to be
//! passed over.
//!
//! **One entry point.** [`Refresher::refresh`] returns a patched
//! copy-on-write clone of a [`FlatIndex`] arena, configured by a
//! [`DeltaConfig`], and keeps its graph-sized push scratch for the next
//! batch; [`refresh_flat_index_snapshot_delta`] is the same on a fresh
//! [`Refresher`]. It refreshes exactly the hubs the arena holds: a whole
//! arena holds every hub, and a shard's slice stays a slice.
//!
//! **Exact refresh** ([`DeltaConfig::exact`]) recomputes every dirty hub's
//! prime PPV from scratch. Correct, but a single edge event near a
//! well-connected node dirties many hubs and costs a full extract + solve
//! for each — the streaming-update throughput blocker.
//!
//! **Delta refresh** (a positive [`DeltaConfig::budget`]) instead
//! *patches* the stored PPV of each hub that holds mass at a changed tail.
//! The stored vector `S` is read as settled mass `m̂ = S/α` of a forward
//! push whose invariant is
//! `ρ = e_σ + (1-α)·Pᵀm̂ − m̂` (the virtual start node `σ` carries the
//! source hub's out-row with unit mass; hubs — the source included — never
//! re-propagate). An edge change at tail `u` alters only `u`'s row of `P`,
//! so the invariant is restored *exactly* by injecting
//! `m̂(u)·(1-α)·(new_row − old_row)` as signed residual and pushing it
//! forward through the full graph with hub absorption
//! ([`DeltaPush`]). Tails with no stored entry inject nothing (the
//! maintained state has no mass there), which is what lets the stored
//! vector stand in for the dependence search.
//!
//! **One push per tail.** The push is linear in what it is given, and the
//! perturbations the holders of one tail need differ only by the scalar
//! `m̂_h(u)`. So each changed non-hub tail `u` gets one push of the *unit*
//! perturbation `(1-α)·(new_row − old_row)`, down a threshold ladder that
//! depends on the tail alone: rung 0 is the injection itself, with pending
//! mass `L₀ = P₀` (the injected mass), and rung `j` settles every residual
//! of at least `τ_j = P₀·2^-j`, leaving `L_j`. A holder stops at the first
//! rung with `m̂_h(u)·L_j ≤` its allowance, takes that rung's deposits —
//! read in id order, without draining them — times `m̂_h(u)`, merges them
//! into its stored entries, and is charged `m̂_h(u)·L_j`. A holder that
//! stops at rung 0 is an unpushed no-op. The ladder goes only as deep as
//! its last holder needs, and no rung depends on which hubs an arena
//! holds, so a shard's slice is patched bit for bit like the whole arena.
//!
//! **A hub's own row, in closed form.** The stored vector excludes the
//! trivial tour (see [`crate::prime`]), so with `Q_t` the hub-absorbing
//! push from head `t`, `S = (1-α)/d·Σ_{t ∈ row} Q_t` and a row change from
//! `d` to `d′` heads gives
//! `S′ = (d/d′)·S + (1-α)/d′·(Σ_added Q_t − Σ_removed Q_t)`. So instead of
//! pushing the difference of two near-equal rows, the hub's entries are
//! scaled by `d/d′` and the one unit push above injects `±(1-α)/d′` at the
//! changed heads only (the multiset symmetric difference of the rows,
//! which also covers a row shrinking to its dangling self-loop and back).
//! Its only holder is the hub itself, at mass 1. Deposits of the hub's
//! other changed tails in the same batch land in the scaled row, so their
//! masses scale by `d/d′` too, and so does the error already stored: the
//! patch is charged `(d/d′)·spent + leftover + merge losses`, which grows
//! the spend on a deletion.
//!
//! **Error budget.** A patch is inexact in three places, all charged to a
//! per-hub accumulated budget stored alongside the index entry
//! ([`FlatIndex::budget_spent`]):
//!
//! * push **leftover** — Σ|residual| the push stopped short of. One unit
//!   of residual mass yields at most one unit of score L1
//!   (`α·Σ(1-α)^i = 1`), so the mass-unit leftover bounds the score-L1
//!   error directly. How much is left is scheduled, not fixed: a patch may
//!   leave `budget /` [`PATCHES_PER_BUDGET`] behind, split evenly over the
//!   changed tails the hub sees, and a holder stops on the first rung of
//!   the tail's ladder where its share of the leftover fits. A
//!   perturbation that fits unpushed is not pushed at all (the stored PPV
//!   stays as it is and the hub's spend grows by the injected mass); a
//!   larger one is chased as far as the allowance demands, to within one
//!   halving of the threshold. There
//!   is no absolute push threshold: work follows the mass an event moves
//!   and the accuracy the operator asked for, not the size of the graph;
//! * **clamp loss** — a patched entry that would go negative by the clip
//!   or more, `v ≤ −clip` (possible because stored entries were clipped),
//!   is clamped to absent; storing `0` instead of `v < 0` perturbs `m̂` by
//!   `|v|/α`, and a point perturbation `δ` of `m̂` moves the invariant by
//!   at most `2δ` in mass units — charged as `2|v|/α`;
//! * **clip loss** — the merge works at the index's own resolution,
//!   [`Config::clip`], exactly like `emit_entries` on a fresh solve: a
//!   deposit opens a new entry only if it reaches `clip`, and an entry a
//!   deposit leaves with `|v| < clip` is dropped. Storing `0` instead of
//!   `v` moves the stored PPV by `|v|` — charged as `|v|`
//!   ([`RefreshStats::clip_dropped`]). Without this a push deposits a
//!   crumb on every node it reaches and the patch stores them all: after
//!   150 single-edge events on a 20 000-node graph most hubs held an entry
//!   for *every* node (an 18× larger arena), and since a stored crumb
//!   makes its node look like stored mass to the next event, ever more
//!   patches had work to do. The dropped mass is the same kind of loss a
//!   fresh build's clip causes — unretained mass the query layer's φ
//!   already counts — but unlike a fresh build's it is counted against the
//!   budget, because it accumulates from patch to patch.
//!
//! When a hub's accumulated spend would exceed [`DeltaConfig::budget`], it
//! falls back to an exact recompute, which resets its spend to zero. Every
//! served PPV therefore stays within `budget` (score L1) of an exact
//! recompute, on top of the baseline approximation the index already
//! carries (clip/ε/solve-tolerance crumbs — which the query layer's φ
//! accounting absorbs as unretained mass).
//!
//! Two settings are exact controls. `budget = 0` ([`DeltaConfig::exact`])
//! disables the delta path entirely: every dirty hub is recomputed, and
//! the refreshed index is bit-identical to a rebuild on the new graph.
//! `clip = 0` disables the clip loss: every deposit is stored, and
//! the merge is the plain clamped sum `view + deposits` (only the push
//! extent then separates a patched PPV from the unbounded push).

use std::time::{Duration, Instant};

use fastppv_graph::{Graph, NodeId};

use crate::config::Config;
use crate::hubs::HubSet;
use crate::index::{FlatIndex, PpvRef, PpvStore};
use crate::prime::{BucketQueue, DeltaPush, PrimeComputer};

/// Hubs whose prime PPV depends on the out-edges of `u` in `graph`:
/// `{h ∈ H : u is an expanded node of G'(h)}`, found by a reverse
/// max-probability search from `u` over hub-free interiors — driven by the
/// same monotone [`BucketQueue`] as the forward extraction kernel, so the
/// set is exact and pop-order independent (see [`crate::prime`]).
///
/// One-shot convenience over [`ReverseScratch`]; batch callers should hold
/// a scratch and seed all tails at once.
pub fn affected_hubs(
    graph: &Graph,
    hubs: &HubSet,
    u: NodeId,
    epsilon: f64,
    alpha: f64,
) -> Vec<NodeId> {
    assert!((u as usize) < graph.num_nodes());
    let mut scratch = ReverseScratch::new(graph.num_nodes());
    let mut dirty = vec![false; graph.num_nodes()];
    scratch.mark_affected(graph, hubs, &[u], epsilon, alpha, &mut dirty);
    let mut affected: Vec<NodeId> = hubs
        .ids()
        .iter()
        .copied()
        .filter(|&h| dirty[h as usize])
        .collect();
    affected.sort_unstable();
    affected
}

/// Reusable scratch for the reverse dependence search: one graph-sized
/// `best` array, one reached list, one [`BucketQueue`] — shared by every
/// tail of a batch and across batches, so invalidating a k-event batch is
/// one multi-source pass instead of k searches with k fresh `O(n)`
/// allocations.
pub struct ReverseScratch {
    best: Vec<f64>,
    reached: Vec<NodeId>,
    queue: BucketQueue,
}

impl ReverseScratch {
    /// A scratch for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        ReverseScratch {
            best: vec![0.0; n],
            reached: Vec::new(),
            queue: BucketQueue::new(),
        }
    }

    /// Number of node slots.
    pub fn capacity(&self) -> usize {
        self.best.len()
    }

    /// Sets `dirty[h] = true` for every hub whose prime PPV depends on the
    /// out-row of any tail in `tails` (out-of-range tails are skipped —
    /// the old-graph pass of a node-growing update). All tails seed one
    /// search: `best` converges to the max over seeds of the best hub-free
    /// walk probability, whose ≥ ε sublevel set is exactly the union of
    /// the per-seed reached sets, since per-step thresholding and
    /// end-to-end thresholding agree for monotonically decaying walk
    /// probabilities. Hub tails are their own sole dependents and are
    /// marked directly, never seeded.
    pub fn mark_affected(
        &mut self,
        graph: &Graph,
        hubs: &HubSet,
        tails: &[NodeId],
        epsilon: f64,
        alpha: f64,
        dirty: &mut [bool],
    ) {
        debug_assert!(self.best.len() >= graph.num_nodes());
        self.queue.configure(alpha);
        for &u in tails {
            if (u as usize) >= graph.num_nodes() {
                continue;
            }
            if hubs.is_hub(u) {
                dirty[u as usize] = true;
                continue;
            }
            if self.best[u as usize] == 0.0 {
                self.reached.push(u);
            }
            self.best[u as usize] = 1.0;
            self.queue.push(1.0, u);
        }
        // best[x] = max probability of a walk x ⇝ some seed whose interior
        // (nodes strictly between x and the seed) is hub-free. Relaxing
        // x's in-neighbors is only sound when x itself may be interior,
        // i.e. x is not a hub; the reached set {x : best(x) ≥ ε} is a
        // fixed point of max-relaxation, so it does not depend on the
        // (quantized) pop order.
        while let Some((p, x)) = self.queue.pop() {
            if p != self.best[x as usize] {
                continue; // stale entry
            }
            if hubs.is_hub(x) {
                continue; // x would be interior for any longer walk: stop
            }
            for &y in graph.in_neighbors(x) {
                let d = graph.out_degree(y);
                if d == 0 {
                    continue;
                }
                let w = p * (1.0 - alpha) / d as f64;
                if w >= epsilon && w > self.best[y as usize] {
                    if self.best[y as usize] == 0.0 {
                        self.reached.push(y);
                    }
                    self.best[y as usize] = w;
                    self.queue.push(w, y);
                }
            }
        }
        for &x in &self.reached {
            if hubs.is_hub(x) {
                dirty[x as usize] = true;
            }
            self.best[x as usize] = 0.0;
        }
        self.reached.clear();
    }
}

/// Tuning of the delta-propagation patch path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaConfig {
    /// Per-hub accumulated error budget, in score-L1 units: the maximum
    /// certified distance between a served (patched) prime PPV and an
    /// exact recompute. Exceeding it triggers an exact recompute for that
    /// hub (resetting its spend). `0` disables the delta path — every
    /// dirty hub recomputes ([`DeltaConfig::exact`]). The budget
    /// also sets how far a patch is pushed: one patch may leave at most
    /// `budget /` [`PATCHES_PER_BUDGET`] of residual behind (see the
    /// module docs), so there is no separate push threshold to tune.
    pub budget: f64,
}

/// How many worst-case patches one hub's budget pays for: a patch's push
/// stops as soon as the residual it leaves behind fits
/// `budget / PATCHES_PER_BUDGET`. Larger pushes each patch further and
/// recomputes less often; the value balances the two on the profiled
/// deployment and is deliberately not a [`DeltaConfig`] field.
pub const PATCHES_PER_BUDGET: f64 = 16.0;

/// Safety cap on the settles of one push (one per changed tail); the
/// holders a truncated push had not served yet fall back to exact
/// recompute.
const PUSH_SETTLE_CAP: usize = 1_000_000;

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig { budget: 0.01 }
    }
}

impl DeltaConfig {
    /// A configuration with the delta path disabled: every dirty hub is
    /// recomputed exactly.
    pub fn exact() -> Self {
        DeltaConfig { budget: 0.0 }
    }

    /// Sets the per-hub error budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// Panics if any parameter is out of its valid range.
    pub fn validate(&self) {
        assert!(
            self.budget >= 0.0 && self.budget.is_finite(),
            "delta budget must be finite and ≥ 0, got {}",
            self.budget
        );
    }
}

/// Statistics from an index refresh.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshStats {
    /// Hubs whose prime PPVs were recomputed exactly (the dependence set
    /// of an exact refresh; on the delta path the hubs it declined —
    /// budget exhausted or push truncated).
    pub recomputed: usize,
    /// Hubs resolved by the delta patch path: their stored state held mass
    /// at a changed tail (includes [`RefreshStats::delta_noop`]).
    pub delta_patched: usize,
    /// Delta-patched hubs whose perturbation fit the patch allowance
    /// unpushed: the stored PPV was not rewritten, only the hub's spend
    /// grew (the common case for a hub that holds little mass at the
    /// tail).
    pub delta_noop: usize,
    /// Hubs the batch was invisible to — not in the exact path's
    /// dependence set, or holding no stored mass at any changed tail on
    /// the delta path. Nothing is written for them.
    pub reused: usize,
    /// Node settles the delta path's pushes performed — one push per
    /// changed tail that some held hub stores mass at, however many hubs
    /// hold it, plus one per changed hub row — the work an event costs,
    /// counted rather than timed. Always 0 for an exact refresh.
    pub push_settles: usize,
    /// Largest per-hub accumulated budget spend in the refreshed index —
    /// ≤ [`DeltaConfig::budget`] by construction (exceeding it forces a
    /// recompute, which resets the hub's spend to zero).
    pub budget_watermark: f64,
    /// Snapshot-clone time. The clone is shallow — chunks are `Arc`-shared and only the per-hub directory is
    /// copied — so this is microseconds even on arenas where the old deep
    /// copy took tens of seconds. Included in `elapsed`; reported
    /// separately so a regression back to deep copying is visible.
    pub clone_elapsed: Duration,
    /// Wall-clock time of the whole refresh, clone included.
    pub elapsed: Duration,
    /// Bytes this refresh copied out of the snapshot it patched: the
    /// directory its shallow clone copies (40 B a hub: id, `SegRef`,
    /// spend and norm; 16 B a chunk handle) plus the live bytes of the
    /// chunks its seal compacted. Tombstone patches copy nothing.
    pub cloned_bytes: u64,
    /// Entries stored in the refreshed index ([`PpvStore::total_entries`])
    /// — with `delta_patched` / `recomputed` it shows whether patches
    /// keep the index at the size a fresh build would have.
    pub live_entries: usize,
    /// Score mass this refresh's patches dropped for falling below
    /// [`Config::clip`] (summed over hubs; each hub's share is inside its
    /// budget spend). Always 0 with `clip = 0`.
    pub clip_dropped: f64,
    /// [`FlatIndex::resident_bytes`] of the refreshed arena.
    pub resident_bytes: usize,
    /// [`FlatIndex::mapped_bytes`] of the refreshed arena.
    pub mapped_bytes: usize,
}

impl RefreshStats {
    /// Hubs the batch touched, `recomputed + delta_patched`: for an exact
    /// refresh the hubs the ε-search reached, for a delta refresh the hubs
    /// whose stored state saw the event (mass at a changed tail).
    pub fn dirty(&self) -> usize {
        self.recomputed + self.delta_patched
    }
}

/// Whether `old` and `new` agree on node count, edge count, and the
/// out-rows of every changed tail. Under the update contract (all edge
/// changes have their tails listed in `changed_tails`) this means the
/// batch was vacuous — the serving layer uses it to skip publishing an
/// epoch (and evicting the warm cache) for no-op batches.
pub fn same_adjacency(old: &Graph, new: &Graph, changed_tails: &[NodeId]) -> bool {
    old.num_nodes() == new.num_nodes()
        && old.num_edges() == new.num_edges()
        && changed_tails.iter().all(|&u| {
            (u as usize) < old.num_nodes() && old.out_neighbors(u) == new.out_neighbors(u)
        })
}

/// The per-node dirty mask of an edge batch — the **exact** path's
/// dependence set: true for every hub whose prime PPV may have changed at
/// any magnitude down to ε. `old_graph` is consulted so that deletions
/// (walks that existed only before the change) also invalidate their
/// dependents. The delta path never calls this (see the module docs): it
/// asks each hub's stored vector instead.
fn dirty_hubs(
    old_graph: &Graph,
    new_graph: &Graph,
    hubs: &HubSet,
    changed_tails: &[NodeId],
    config: &Config,
) -> Vec<bool> {
    let n = new_graph.num_nodes();
    let mut scratch = ReverseScratch::new(n.max(old_graph.num_nodes()));
    let mut dirty = vec![false; n];
    for graph in [new_graph, old_graph] {
        scratch.mark_affected(
            graph,
            hubs,
            changed_tails,
            config.epsilon,
            config.alpha,
            &mut dirty,
        );
    }
    dirty
}

/// Sorted, deduplicated copy of an event batch's tails. Dedup is
/// load-bearing for the delta path: each tail's row swap must be injected
/// exactly once.
fn dedup_tails(changed_tails: &[NodeId]) -> Vec<NodeId> {
    let mut tails = changed_tails.to_vec();
    tails.sort_unstable();
    tails.dedup();
    tails
}

/// A held hub whose stored state sees the batch, on the delta path.
struct Holder {
    hub: NodeId,
    /// `d/d′` when the batch changes the hub's own out-row (the closed form
    /// scales every stored entry by it, see the module docs), else 1.
    scale: f64,
    /// The leftover this hub may be left by each tail it sees:
    /// `budget /` [`PATCHES_PER_BUDGET`], split evenly over those tails.
    allowance: f64,
    /// `scale ×` the stored spend, plus every tail's leftover and every
    /// merge's losses so far.
    spent: f64,
    /// The part of `spent` this batch's merges dropped below the clip.
    clipped: f64,
    /// Whether a merge has written the hub's segment in this batch (its
    /// entries are then already scaled).
    merged: bool,
    /// A push it needed was truncated, or its spend left the budget.
    recompute: bool,
}

/// One holder's stake in one changed tail.
#[derive(Clone, Copy)]
struct Stake {
    /// Position of the tail in the batch's sorted tails.
    tail: u32,
    /// Index of the holder.
    holder: u32,
    /// What the tail's unit deposits are multiplied by in the holder's
    /// patch: its settled mass at the tail, `S_h(u)/α`, times its `scale`
    /// — or 1 for the hub's own row.
    mass: f64,
}

#[inline]
fn view_entry(view: &PpvRef<'_>, i: usize) -> (NodeId, f64) {
    match view {
        PpvRef::Soa { ids, scores } => (ids[i], scores[i]),
        PpvRef::Aos(entries) => entries[i],
    }
}

/// Injects `scale / row.len()` at every target of `row` (parallel edges
/// contribute once per occurrence, matching the solver's degree counting).
fn inject_row(push: &mut DeltaPush, row: &[NodeId], scale: f64) {
    if row.is_empty() {
        return; // dangling rows absorb: no transition mass to perturb
    }
    let share = scale / row.len() as f64;
    for &t in row {
        push.inject(t, share);
    }
}

/// Injects `+share` at every head `new_row` has and `old_row` lacks and
/// `−share` at every head it lost — the multiset symmetric difference of
/// two sorted rows, so a head kept (one occurrence each) injects nothing.
fn inject_row_change(push: &mut DeltaPush, old_row: &[NodeId], new_row: &[NodeId], share: f64) {
    let (mut i, mut j) = (0, 0);
    while i < old_row.len() || j < new_row.len() {
        if j == new_row.len() || (i < old_row.len() && old_row[i] < new_row[j]) {
            push.inject(old_row[i], -share);
            i += 1;
        } else if i == old_row.len() || new_row[j] < old_row[i] {
            push.inject(new_row[j], share);
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

/// Score mass a merge declined to store.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct MergeLoss {
    /// Σ|v| over entries that would have gone negative by the clip or more
    /// and were clamped to absent (charged `2|v|/α`).
    clamped: f64,
    /// Σ|v| over entries dropped for being below the index's resolution,
    /// `|v| < clip` (charged `|v|`).
    clipped: f64,
}

#[inline]
fn merge_entry(out: &mut Vec<(NodeId, f64)>, loss: &mut MergeLoss, clip: f64, id: NodeId, s: f64) {
    if s >= clip && s > 0.0 {
        out.push((id, s));
    } else if s <= -clip && s < 0.0 {
        loss.clamped += -s;
    } else {
        // |s| is below the resolution the index stores at — what
        // `emit_entries` drops on a fresh solve. (s == 0.0 exactly: absent
        // and value zero are the same state — free.)
        loss.clipped += s.abs();
    }
}

/// A merge of sorted score deltas into a stored view at the index's
/// resolution: `out = scale·view + weight·deposits`, ascending, keeping
/// only entries `≥ clip` (and `> 0`). With `scale = 1` untouched stored
/// entries pass through as they are; a deposit opens a *new* entry only if
/// it reaches `clip` by itself, and a stored entry a deposit pulls below
/// `clip` is dropped — so a patched segment is as sparse as a freshly
/// solved one instead of collecting every crumb a push deposits. A scaled
/// view (the closed form of a hub's own row) sends every entry through
/// the clip. With `clip = 0` this is the plain clamped sum. Deposits are
/// fed one at a time, in ascending id, straight from the push.
struct Merge<'v, 'o> {
    view: PpvRef<'v>,
    /// Next view entry to merge.
    next: usize,
    scale: f64,
    weight: f64,
    clip: f64,
    out: &'o mut Vec<(NodeId, f64)>,
    loss: MergeLoss,
}

impl<'v, 'o> Merge<'v, 'o> {
    fn new(
        view: PpvRef<'v>,
        scale: f64,
        weight: f64,
        clip: f64,
        out: &'o mut Vec<(NodeId, f64)>,
    ) -> Self {
        out.clear();
        out.reserve(view.len());
        Merge {
            view,
            next: 0,
            scale,
            weight,
            clip,
            out,
            loss: MergeLoss::default(),
        }
    }

    /// Emits the next stored entry, scaled.
    fn pass_stored(&mut self) {
        let (id, s) = view_entry(&self.view, self.next);
        self.next += 1;
        if self.scale == 1.0 {
            self.out.push((id, s));
        } else {
            merge_entry(self.out, &mut self.loss, self.clip, id, self.scale * s);
        }
    }

    /// Merges the next deposit; ids must ascend.
    fn deposit(&mut self, id: NodeId, d: f64) {
        while self.next < self.view.len() && view_entry(&self.view, self.next).0 < id {
            self.pass_stored();
        }
        let mut s = self.weight * d;
        if self.next < self.view.len() {
            let (vid, vs) = view_entry(&self.view, self.next);
            if vid == id {
                s += self.scale * vs;
                self.next += 1;
            }
        }
        merge_entry(self.out, &mut self.loss, self.clip, id, s);
    }

    /// Emits the stored entries past the last deposit; returns what the
    /// merge declined to store.
    fn finish(mut self) -> MergeLoss {
        while self.next < self.view.len() {
            self.pass_stored();
        }
        self.loss
    }
}

/// The update path's reusable state: the graph-sized [`DeltaPush`] and the
/// per-batch holder lists of the delta path, kept warm from one refresh to
/// the next. The push is built at the first injection, so a refresher
/// whose events no held hub sees allocates nothing graph-sized. A serving
/// process keeps one next to the lock that serializes its updates;
/// [`refresh_flat_index_snapshot_delta`] makes a fresh one per call.
#[derive(Default)]
pub struct Refresher {
    push: Option<DeltaPush>,
    holders: Vec<Holder>,
    /// Every holder's stake in every changed tail, grouped by tail.
    stakes: Vec<Stake>,
    /// The stakes of the tail being pushed whose holders have not stopped.
    climbing: Vec<Stake>,
    /// The segment a merge writes.
    merged: Vec<(NodeId, f64)>,
}

impl Refresher {
    /// A refresher with nothing allocated yet.
    pub fn new() -> Self {
        Refresher::default()
    }

    /// [`refresh_flat_index_snapshot_delta`] on this refresher's scratch:
    /// leaves `old` untouched and returns a patched copy-on-write clone,
    /// sealed ([`FlatIndex::seal`]) and ready to publish.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        old: &FlatIndex,
        old_graph: &Graph,
        new_graph: &Graph,
        hubs: &HubSet,
        changed_tails: &[NodeId],
        config: &Config,
        delta: &DeltaConfig,
    ) -> (FlatIndex, RefreshStats) {
        let clone_start = Instant::now();
        let mut next = old.clone();
        let clone_elapsed = clone_start.elapsed();
        let mut stats = refresh_flat_index_delta(
            self,
            &mut next,
            old_graph,
            new_graph,
            hubs,
            changed_tails,
            config,
            delta,
        );
        stats.clone_elapsed = clone_elapsed;
        stats.elapsed += clone_elapsed;
        stats.cloned_bytes += old.snapshot_bytes() as u64;
        (next, stats)
    }

    /// Asks every held hub's stored vector which changed `tails` it sees:
    /// its own row (unit mass, the virtual start node's), or a non-hub tail
    /// it stores mass at (another hub's row never propagates inside
    /// `G'(h)`). Fills the holders, in hub-set order, and their stakes,
    /// grouped by tail. Returns how many hubs the arena holds.
    #[allow(clippy::too_many_arguments)]
    fn find_holders(
        &mut self,
        index: &FlatIndex,
        old_graph: &Graph,
        new_graph: &Graph,
        hubs: &HubSet,
        tails: &[NodeId],
        config: &Config,
        delta: &DeltaConfig,
    ) -> usize {
        // Cleared here rather than on the way out, so a batch that
        // panicked part-way leaves nothing behind for the next one.
        self.holders.clear();
        self.stakes.clear();
        let mut held = 0;
        for &h in hubs.ids() {
            // A hub the arena does not hold is another shard's to refresh.
            let Some(view) = index.view(h) else { continue };
            held += 1;
            let first = self.stakes.len();
            let holder = self.holders.len() as u32;
            let mut scale = 1.0;
            for (tail, &u) in tails.iter().enumerate() {
                let mass = if u == h {
                    let (d, d_new) = (old_graph.out_degree(u), new_graph.out_degree(u));
                    // S′ = (d/d′)·S + …; a row emptied to nothing leaves
                    // nothing (only a graph that keeps dangling rows has one).
                    scale = if d_new == 0 {
                        0.0
                    } else {
                        d as f64 / d_new as f64
                    };
                    1.0
                } else if hubs.is_hub(u) {
                    continue;
                } else {
                    match view.score_of(u) {
                        Some(s) if s != 0.0 => s / config.alpha,
                        // No stored mass at u: the row swap is exactly
                        // invisible to this hub's maintained state.
                        _ => continue,
                    }
                };
                let tail = tail as u32;
                self.stakes.push(Stake { tail, holder, mass });
            }
            let seen = self.stakes.len() - first;
            if seen == 0 {
                // The common case for a far-away event: nothing to push,
                // merge, spend or write.
                continue;
            }
            // Deposits of the other tails land in the row the closed form
            // scales, so they scale with it.
            for stake in &mut self.stakes[first..] {
                if tails[stake.tail as usize] != h {
                    stake.mass *= scale;
                }
            }
            self.holders.push(Holder {
                hub: h,
                scale,
                allowance: delta.budget / PATCHES_PER_BUDGET / seen as f64,
                spent: scale * index.budget_spent(h),
                clipped: 0.0,
                merged: false,
                recompute: false,
            });
        }
        self.stakes.sort_unstable_by_key(|s| (s.tail, s.holder));
        held
    }

    /// Pushes each changed tail's unit perturbation once and hands every
    /// holder of the tail its deposits at the rung it needs (module docs),
    /// writing each patched segment as it merges. Returns the settles.
    #[allow(clippy::too_many_arguments)]
    fn push_tails(
        &mut self,
        index: &mut FlatIndex,
        old_graph: &Graph,
        new_graph: &Graph,
        hubs: &HubSet,
        tails: &[NodeId],
        config: &Config,
        delta: &DeltaConfig,
    ) -> usize {
        let Refresher {
            push,
            holders,
            stakes,
            climbing,
            merged,
        } = self;
        let alpha = config.alpha;
        let n = new_graph.num_nodes();
        let mut settles = 0;
        for group in stakes.chunk_by(|a, b| a.tail == b.tail) {
            climbing.clear();
            climbing.extend(
                group
                    .iter()
                    .filter(|s| !holders[s.holder as usize].recompute),
            );
            if climbing.is_empty() {
                continue;
            }
            let push = match push {
                Some(push) if push.capacity() >= n => push,
                _ => push.insert(DeltaPush::new(n)),
            };
            push.reset();
            let u = tails[group[0].tail as usize];
            let (old_row, new_row) = (old_graph.out_neighbors(u), new_graph.out_neighbors(u));
            if hubs.is_hub(u) {
                // The closed form's push: ±(1-α)/d′ at the changed heads.
                if !new_row.is_empty() {
                    let share = (1.0 - alpha) / new_row.len() as f64;
                    inject_row_change(push, old_row, new_row, share);
                }
            } else {
                inject_row(push, old_row, -(1.0 - alpha));
                inject_row(push, new_row, 1.0 - alpha);
            }
            // The ladder: rung 0 is the injection itself, rung j the push
            // settled down to P₀·2^-j. Each holder stops at the first rung
            // whose pending mass, times its stake, fits its allowance.
            let mut rung = push.start_ladder();
            loop {
                climbing.retain(|stake| {
                    let holder = &mut holders[stake.holder as usize];
                    if stake.mass * rung.leftover > holder.allowance {
                        return true;
                    }
                    holder.spent += stake.mass * rung.leftover;
                    if holder.spent > delta.budget {
                        holder.recompute = true;
                    } else if rung.settles > 0 {
                        let push = Some(&mut *push);
                        holder.merge(index, hubs, push, stake.mass, config, delta.budget, merged);
                    } // else unpushed: the stored PPV stays as it is
                    false
                });
                if climbing.is_empty() {
                    break;
                }
                if rung.truncated {
                    // The safety valve tripped below these holders' rungs.
                    for stake in climbing.drain(..) {
                        holders[stake.holder as usize].recompute = true;
                    }
                    break;
                }
                push.descend(new_graph, hubs, alpha, PUSH_SETTLE_CAP, &mut rung);
            }
            settles += rung.settles;
        }
        settles
    }
}

/// Refreshes a [`FlatIndex`] arena in place after edge updates — the
/// body of [`Refresher::refresh`].
/// Recomputed hubs go through [`FlatIndex::replace`] and patched ones
/// through [`FlatIndex::replace_entries`] as their merges complete
/// (tombstone-and-append), and the arena is sealed at the end
/// ([`FlatIndex::seal`]: chunks past
/// [`FlatIndex::COMPACTION_THRESHOLD`] or too small to stand alone are
/// compacted, one chunk's worth plus the refresh's tombstones over the
/// threshold). Unaffected segments are
/// untouched — no entry is copied for them — and unpushed patches only
/// bump the slot's budget spend. The arena must cover `new_graph` (node
/// additions require a rebuild via [`crate::offline::build_flat_index`]).
#[allow(clippy::too_many_arguments)]
fn refresh_flat_index_delta(
    refresher: &mut Refresher,
    index: &mut FlatIndex,
    old_graph: &Graph,
    new_graph: &Graph,
    hubs: &HubSet,
    changed_tails: &[NodeId],
    config: &Config,
    delta: &DeltaConfig,
) -> RefreshStats {
    config.validate();
    delta.validate();
    assert!(
        index.capacity() >= new_graph.num_nodes(),
        "arena sized for {} nodes, graph has {} (rebuild instead)",
        index.capacity(),
        new_graph.num_nodes()
    );
    let start = Instant::now();
    let cloned_before = index.bytes_cloned();
    let n = new_graph.num_nodes();
    let mut tails = dedup_tails(changed_tails);
    let mut pc: Option<PrimeComputer> = None;
    let mut recompute = |index: &mut FlatIndex, h: NodeId| {
        let pc = pc.get_or_insert_with(|| PrimeComputer::new(n));
        let (ppv, _) = pc.prime_ppv(new_graph, hubs, h, config, config.clip);
        index.replace(h, &ppv, hubs);
    };
    let mut stats = RefreshStats::default();
    if delta.budget > 0.0 && old_graph.num_nodes() == n {
        // Only a tail whose row changed perturbs anything.
        tails.retain(|&u| old_graph.out_neighbors(u) != new_graph.out_neighbors(u));
        let held = refresher.find_holders(index, old_graph, new_graph, hubs, &tails, config, delta);
        stats.reused = held - refresher.holders.len();
        stats.push_settles =
            refresher.push_tails(index, old_graph, new_graph, hubs, &tails, config, delta);
        let Refresher {
            holders, merged, ..
        } = refresher;
        for holder in holders.iter_mut() {
            if !holder.recompute && !holder.merged && holder.scale != 1.0 {
                // The hub's own row changed and no merge wrote its
                // segment: the closed form still scales its entries.
                holder.merge(index, hubs, None, 1.0, config, delta.budget, merged);
            }
            let h = holder.hub;
            if holder.recompute {
                recompute(index, h);
                stats.recomputed += 1;
                continue;
            }
            if holder.merged {
                stats.clip_dropped += holder.clipped;
            } else {
                // The perturbation fit the allowance unpushed: keep the
                // stored PPV, carry the (leftover-charged) spend.
                stats.delta_noop += 1;
            }
            index.set_budget_spent(h, holder.spent);
            stats.delta_patched += 1;
        }
    } else {
        let dirty = dirty_hubs(old_graph, new_graph, hubs, &tails, config);
        for &h in hubs.ids() {
            // A hub the arena does not hold is another shard's to refresh.
            if index.view(h).is_none() {
                continue;
            }
            if dirty[h as usize] {
                recompute(index, h);
                stats.recomputed += 1;
            } else {
                stats.reused += 1;
            }
        }
    }
    index.seal();
    stats.budget_watermark = index.budget_watermark();
    stats.live_entries = index.total_entries();
    stats.cloned_bytes = index.bytes_cloned() - cloned_before;
    stats.resident_bytes = index.resident_bytes();
    stats.mapped_bytes = index.mapped_bytes();
    stats.elapsed = start.elapsed();
    stats
}

impl Holder {
    /// Merges `weight ×` the push's deposits (none without a push) into
    /// the hub's segment — its stored entries scaled by `scale` on the
    /// first merge — and charges the merge's losses (module docs). The
    /// merged entries replace the segment unless the losses take the spend
    /// past the budget, which declines the patch.
    #[allow(clippy::too_many_arguments)]
    fn merge(
        &mut self,
        index: &mut FlatIndex,
        hubs: &HubSet,
        push: Option<&mut DeltaPush>,
        weight: f64,
        config: &Config,
        budget: f64,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        let view = index.view(self.hub).expect("held hub");
        let scale = if self.merged { 1.0 } else { self.scale };
        let mut merge = Merge::new(view, scale, weight, config.clip, out);
        if let Some(push) = push {
            push.for_each_deposit(|id, d| merge.deposit(id, d));
        }
        let loss = merge.finish();
        self.spent += 2.0 * loss.clamped / config.alpha + loss.clipped;
        self.clipped += loss.clipped;
        if self.spent > budget {
            self.recompute = true;
            return;
        }
        index.replace_entries(self.hub, out, hubs);
        self.merged = true;
    }
}

/// Refreshes a [`FlatIndex`] arena after edge updates, touching only
/// affected hubs: leaves `old` untouched and returns a freshly patched
/// arena. This is the entry point an epoch-snapshot service wants —
/// readers pinning the old arena (behind an `Arc` swap cell) keep seeing
/// it undisturbed while the clone is patched and published as the next
/// epoch's store. It runs on a fresh [`Refresher`]; a caller that refreshes
/// repeatedly keeps one and calls [`Refresher::refresh`].
///
/// `changed_tails` are the source nodes of every inserted or deleted edge;
/// `old_graph` supplies their rows before the change (and, on the exact
/// path, the walks that existed only before it). With a positive budget
/// the hubs whose stored PPV holds mass at a changed tail are patched
/// within the per-hub error budget (or only charged, when the perturbation
/// fits the allowance unpushed) and recomputed when it does not fit; with
/// [`DeltaConfig::exact`] every hub the ε-search reaches is recomputed. See
/// the module docs for both dependence oracles and the accounting.
///
/// The refreshed arena holds exactly the hubs `old` holds, so a shard's
/// slice stays a slice (recomputing the hubs it does *not* hold would
/// balloon it back to a full copy). `hubs` must still be the **full** hub
/// set: it defines prime-PPV semantics — which nodes stop tours.
///
/// The clone is *shallow*: the arena chunks are `Arc`-shared with the old
/// snapshot and only the per-hub directory is copied, so publishing costs
/// microseconds regardless of arena size. Patches seal shared chunks and
/// append to fresh ones (copy-on-write at chunk granularity) — readers
/// pinning the old arena keep seeing every byte of it undisturbed. Clone
/// cost is included in [`RefreshStats::elapsed`] and broken out in
/// [`RefreshStats::clone_elapsed`]; the directory the clone copied and
/// the chunk bytes compaction copied show up in
/// [`RefreshStats::cloned_bytes`].
#[allow(clippy::too_many_arguments)]
pub fn refresh_flat_index_snapshot_delta(
    old: &FlatIndex,
    old_graph: &Graph,
    new_graph: &Graph,
    hubs: &HubSet,
    changed_tails: &[NodeId],
    config: &Config,
    delta: &DeltaConfig,
) -> (FlatIndex, RefreshStats) {
    Refresher::new().refresh(
        old,
        old_graph,
        new_graph,
        hubs,
        changed_tails,
        config,
        delta,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubs::{select_hubs, HubPolicy};
    use crate::index::PrimePpv;
    use crate::offline::build_index;
    use fastppv_graph::gen::barabasi_albert;
    use fastppv_graph::{Graph, GraphBuilder};

    fn add_edge(graph: &Graph, u: NodeId, v: NodeId) -> Graph {
        let mut b = GraphBuilder::new(graph.num_nodes());
        for (s, t) in graph.edges() {
            // Drop the dangling-fix self-loop if the node gains a real edge.
            if s == t && s == u {
                continue;
            }
            b.add_edge(s, t);
        }
        b.add_edge(u, v);
        b.build()
    }

    fn remove_edge(graph: &Graph, u: NodeId, v: NodeId) -> Graph {
        let mut b = GraphBuilder::new(graph.num_nodes());
        let mut removed = false;
        let mut remaining = 0usize;
        for (s, t) in graph.edges() {
            if s == u {
                if !removed && t == v {
                    removed = true;
                    continue;
                }
                remaining += 1;
            }
            b.add_edge(s, t);
        }
        assert!(removed, "edge ({u}, {v}) not present");
        if remaining == 0 {
            b.add_edge(u, u); // keep the dangling-fix invariant
        }
        b.build()
    }

    /// L1 distance between two sorted sparse entry lists.
    fn entries_l1(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> f64 {
        let mut d = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].0 < b[j].0 {
                d += a[i].1.abs();
                i += 1;
            } else if b[j].0 < a[i].0 {
                d += b[j].1.abs();
                j += 1;
            } else {
                d += (a[i].1 - b[j].1).abs();
                i += 1;
                j += 1;
            }
        }
        d += a[i..].iter().map(|&(_, s)| s.abs()).sum::<f64>();
        d += b[j..].iter().map(|&(_, s)| s.abs()).sum::<f64>();
        d
    }

    #[test]
    fn hub_tail_affects_only_itself() {
        let g = barabasi_albert(200, 3, 1);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let h = hubs.ids()[0];
        let affected = affected_hubs(&g, &hubs, h, 1e-8, 0.15);
        assert_eq!(affected, vec![h]);
    }

    #[test]
    fn affected_set_contains_upstream_hubs_only() {
        let g = barabasi_albert(300, 3, 2);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        // Pick a non-hub node.
        let u = (0..300u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let affected = affected_hubs(&g, &hubs, u, 1e-8, 0.15);
        for &h in &affected {
            assert!(hubs.is_hub(h));
        }
        // Larger epsilon shrinks (or keeps) the affected set.
        let smaller = affected_hubs(&g, &hubs, u, 1e-3, 0.15);
        assert!(smaller.len() <= affected.len());
    }

    #[test]
    fn multi_source_search_equals_union_of_single_sources() {
        let g = barabasi_albert(300, 3, 5);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let tails: Vec<NodeId> = vec![4, 17, 17, 42, hubs.ids()[3], 201];
        for epsilon in [1e-3, 1e-5, 1e-8] {
            let mut union = vec![false; 300];
            for &u in &tails {
                for h in affected_hubs(&g, &hubs, u, epsilon, 0.15) {
                    union[h as usize] = true;
                }
            }
            let mut scratch = ReverseScratch::new(300);
            let mut multi = vec![false; 300];
            scratch.mark_affected(&g, &hubs, &tails, epsilon, 0.15, &mut multi);
            assert_eq!(multi, union, "epsilon {epsilon}");
            // The scratch resets itself: a second batch sees clean state.
            let mut again = vec![false; 300];
            scratch.mark_affected(&g, &hubs, &tails, epsilon, 0.15, &mut again);
            assert_eq!(again, union, "epsilon {epsilon} (scratch reuse)");
        }
    }

    #[test]
    fn refresh_matches_full_rebuild() {
        let g = barabasi_albert(250, 3, 7);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let exact = DeltaConfig::exact();
        let (old_index, _) = build_index(&g, &hubs, &config);
        // Insert an edge from a non-hub node.
        let u = (0..250u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let v = (u + 17) % 250;
        let g2 = add_edge(&g, u, v);
        let (refreshed, stats) =
            refresh_flat_index_snapshot_delta(&old_index, &g, &g2, &hubs, &[u], &config, &exact);
        let (rebuilt, _) = build_index(&g2, &hubs, &config);
        assert_eq!(refreshed.hub_count(), rebuilt.hub_count());
        for &h in hubs.ids() {
            assert_eq!(
                refreshed.load(h).unwrap().entries,
                rebuilt.load(h).unwrap().entries,
                "hub {h}"
            );
        }
        assert!(stats.recomputed > 0);
        assert_eq!(stats.delta_patched, 0, "exact refresh never patches");
        assert_eq!(stats.budget_watermark, 0.0);
        // (Locality — reused > 0 — is asserted in
        // refresh_is_much_cheaper_than_rebuild on a larger graph; at 250
        // nodes with ε = 1e-8 every hub can legitimately be upstream.)
    }

    /// `cloned_bytes` is what a refresh copies out of the snapshot it
    /// patches: the directory its clone copies — 40 B a hub (id, `SegRef`,
    /// spend, norm) and 16 B a chunk handle — and, when its seal compacts,
    /// the live bytes of the chunks it rewrote (12 B an entry, 8 B a
    /// border-sublist entry).
    #[test]
    fn cloned_bytes_counts_the_directory_and_the_chunks_compacted() {
        use fastppv_graph::gen::{apply_event, synth_events};
        let g = barabasi_albert(400, 3, 5);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let config = Config::default().with_epsilon(1e-6);
        let delta = DeltaConfig::default();
        let (built, _) = crate::offline::build_flat_index(&g, &hubs, &config, 1);
        let directory =
            |index: &FlatIndex| (index.hub_count() * 40 + index.chunk_count() * 16) as u64;
        let mut refresher = Refresher::new();

        // A refresh that patches nothing copies exactly the directory.
        let (_, stats) = refresher.refresh(&built, &g, &g, &hubs, &[], &config, &delta);
        assert_eq!(stats.dirty(), 0, "{stats:?}");
        assert_eq!(stats.cloned_bytes, directory(&built));

        // Stream events, holding each previous snapshot, to the first
        // refresh whose seal compacts.
        let (mut graph, mut prev) = (g.clone(), built);
        for event in synth_events(&g, 200, 0.2, 3) {
            let next_graph = apply_event(&graph, &event);
            let (next, stats) = refresher.refresh(
                &prev,
                &graph,
                &next_graph,
                &hubs,
                &[event.tail],
                &config,
                &delta,
            );
            if next.compactions() == prev.compactions() {
                assert_eq!(stats.cloned_bytes, directory(&prev), "{stats:?}");
                (graph, prev) = (next_graph, next);
                continue;
            }
            // The compacted chunks' live segments are the ones that moved
            // without being patched.
            let ids = |index: &FlatIndex, h| match index.view(h) {
                Some(PpvRef::Soa { ids, .. }) => ids.as_ptr(),
                _ => unreachable!("arena views are SoA"),
            };
            let moved: u64 = hubs
                .ids()
                .iter()
                .filter(|&&h| ids(&prev, h) != ids(&next, h) && prev.load(h) == next.load(h))
                .map(|&h| {
                    let len = next.view(h).unwrap().len() as u64;
                    let border = next.border_sublist(h).unwrap().0.len() as u64;
                    len * 12 + border * 8
                })
                .sum();
            assert!(moved > 0);
            assert_eq!(stats.cloned_bytes, directory(&prev) + moved, "{stats:?}");
            return;
        }
        panic!("200 events never compacted a chunk");
    }

    #[test]
    fn flat_refresh_matches_full_rebuild() {
        let g = barabasi_albert(250, 3, 7);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let exact = DeltaConfig::exact();
        let (mut flat, _) = crate::offline::build_flat_index(&g, &hubs, &config, 1);
        let u = (0..250u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let g2 = add_edge(&g, u, (u + 17) % 250);
        let stats = refresh_flat_index_delta(
            &mut Refresher::new(),
            &mut flat,
            &g,
            &g2,
            &hubs,
            &[u],
            &config,
            &exact,
        );
        let (rebuilt, _) = crate::offline::build_flat_index(&g2, &hubs, &config, 1);
        assert_eq!(flat.hub_count(), rebuilt.hub_count());
        for &h in hubs.ids() {
            assert_eq!(flat.load(h).unwrap(), rebuilt.load(h).unwrap(), "hub {h}");
            assert_eq!(
                flat.border_sublist(h).unwrap().0,
                rebuilt.border_sublist(h).unwrap().0,
                "hub {h} border sublist"
            );
        }
        assert!(stats.recomputed > 0);
    }

    #[test]
    fn snapshot_refresh_leaves_old_arena_untouched() {
        let g = barabasi_albert(250, 3, 7);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let exact = DeltaConfig::exact();
        let (flat, _) = crate::offline::build_flat_index(&g, &hubs, &config, 1);
        let before: Vec<_> = hubs.ids().iter().map(|&h| flat.load(h).unwrap()).collect();
        let u = (0..250u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let g2 = add_edge(&g, u, (u + 17) % 250);
        let (next, stats) =
            refresh_flat_index_snapshot_delta(&flat, &g, &g2, &hubs, &[u], &config, &exact);
        assert!(stats.recomputed > 0);
        // The clone is timed, and inside the total.
        assert!(stats.elapsed >= stats.clone_elapsed);
        // The old arena still answers exactly as before the update…
        for (&h, old) in hubs.ids().iter().zip(&before) {
            assert_eq!(flat.load(h).unwrap(), *old, "hub {h} must be untouched");
        }
        // …and the new one matches a from-scratch build of the new graph.
        let (rebuilt, _) = crate::offline::build_flat_index(&g2, &hubs, &config, 1);
        for &h in hubs.ids() {
            assert_eq!(next.load(h).unwrap(), rebuilt.load(h).unwrap(), "hub {h}");
        }
    }

    #[test]
    fn refresh_handles_deletion_via_old_graph() {
        let g = barabasi_albert(200, 3, 11);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let config = Config::default();
        let exact = DeltaConfig::exact();
        let u = (0..200u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let v = g.out_neighbors(u)[0];
        let g2 = remove_edge(&g, u, v);
        let (old_index, _) = build_index(&g, &hubs, &config);
        let (refreshed, _) =
            refresh_flat_index_snapshot_delta(&old_index, &g, &g2, &hubs, &[u], &config, &exact);
        let (rebuilt, _) = build_index(&g2, &hubs, &config);
        for &h in hubs.ids() {
            assert_eq!(
                refreshed.load(h).unwrap().entries,
                rebuilt.load(h).unwrap().entries,
                "hub {h}"
            );
        }
    }

    #[test]
    fn refresh_is_much_cheaper_than_rebuild() {
        let g = barabasi_albert(400, 3, 3);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 60, 0);
        // ε must match the graph's scale for refresh locality: at 1e-8 a
        // 14-step hub-free reverse walk still counts as a dependency, which
        // on a 400-node small-world graph reaches every hub (correctly —
        // refresh_matches_full_rebuild pins the semantics). At 1e-4 the
        // dependence sets are genuinely local (~18 of 60 hubs here).
        let config = Config::default().with_epsilon(1e-4);
        let exact = DeltaConfig::exact();
        let (old_index, _) = build_index(&g, &hubs, &config);
        let u = (0..400u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let g2 = add_edge(&g, u, (u + 31) % 400);
        let (_, stats) =
            refresh_flat_index_snapshot_delta(&old_index, &g, &g2, &hubs, &[u], &config, &exact);
        assert!(
            stats.recomputed < hubs.len() / 2,
            "recomputed {} of {} hubs",
            stats.recomputed,
            hubs.len()
        );
    }

    /// A tight-tolerance config: clip 0 and tiny thresholds make the fresh
    /// build essentially exact, so the delta path's budget accounting can
    /// be checked sharply against a rebuild.
    fn tight_config() -> Config {
        let mut c = Config::default().with_epsilon(1e-10).with_clip(0.0);
        c.solve_tolerance = 1e-12;
        c
    }

    #[test]
    fn delta_refresh_stays_within_budget_of_rebuild() {
        let g0 = barabasi_albert(300, 3, 13);
        let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 30, 0);
        let config = tight_config();
        let delta = DeltaConfig::default().with_budget(0.05);
        let (mut index, _) = build_index(&g0, &hubs, &config);
        let mut g = g0;
        let mut patched_total = 0usize;
        // A mixed insert/delete event stream through the delta path.
        for step in 0..8u32 {
            let u = (step * 37 + 5) % 300;
            let (g2, tail) = if step % 3 == 2 {
                let t = g.out_neighbors(u)[0];
                (remove_edge(&g, u, t), u)
            } else {
                (add_edge(&g, u, (u + 59 + step) % 300), u)
            };
            let (next, stats) =
                refresh_flat_index_snapshot_delta(&index, &g, &g2, &hubs, &[tail], &config, &delta);
            assert_eq!(
                stats.delta_patched + stats.recomputed + stats.reused,
                hubs.len()
            );
            assert!(
                stats.budget_watermark <= delta.budget,
                "watermark {} > budget {}",
                stats.budget_watermark,
                delta.budget
            );
            patched_total += stats.delta_patched;
            index = next;
            g = g2;
        }
        assert!(patched_total > 0, "delta path never engaged");
        // Each stored PPV is within its accounted spend (plus solver
        // crumbs) of an exact rebuild on the final graph.
        let (rebuilt, _) = build_index(&g, &hubs, &config);
        for &h in hubs.ids() {
            let l1 = entries_l1(
                index.load(h).unwrap().entries.entries(),
                rebuilt.load(h).unwrap().entries.entries(),
            );
            let allowed = index.budget_spent(h) + 1e-6;
            assert!(l1 <= allowed, "hub {h}: L1 {l1} > allowed {allowed}");
        }
    }

    /// [`Merge`] over a slice of sorted deposits.
    fn merge_patch(
        view: &PpvRef<'_>,
        scale: f64,
        deposits: &[(NodeId, f64)],
        weight: f64,
        clip: f64,
        out: &mut Vec<(NodeId, f64)>,
    ) -> MergeLoss {
        let mut merge = Merge::new(view.clone(), scale, weight, clip, out);
        for &(id, d) in deposits {
            merge.deposit(id, d);
        }
        merge.finish()
    }

    /// The parent merge, before it learned about the clip: every deposit
    /// stored, entries clamped at zero. The reference `clip = 0` must equal.
    fn merge_unclipped(view: &PpvRef<'_>, deposits: &[(NodeId, f64)]) -> (Vec<(NodeId, f64)>, f64) {
        let mut sum: std::collections::BTreeMap<NodeId, f64> = std::collections::BTreeMap::new();
        view.for_each(|id, s| {
            sum.insert(id, s);
        });
        let mut clamped = 0.0;
        let mut out = Vec::new();
        for &(id, d) in deposits {
            // A deposit-only entry is `d` itself, not `0.0 + d` (the two
            // differ in the sign of zero only, which is dropped anyway).
            sum.entry(id).and_modify(|s| *s += d).or_insert(d);
        }
        for (id, s) in sum {
            if s > 0.0 {
                out.push((id, s));
            } else if s < 0.0 {
                clamped += -s;
            }
        }
        (out, clamped)
    }

    #[test]
    fn clip_zero_merge_is_bit_identical_to_the_unclipped_merge() {
        let stored: Vec<(NodeId, f64)> =
            vec![(1, 0.25), (4, 3e-5), (9, 1e-9), (12, 0.01), (20, 7e-4)];
        let deposits: Vec<(NodeId, f64)> = vec![
            (0, 1e-7),   // new crumb: stored
            (1, -0.05),  // shrinks a stored entry
            (4, -3e-5),  // cancels one exactly: absent, free
            (9, -2e-9),  // drives one negative: clamped
            (10, -4e-6), // negative with nothing stored: clamped
            (12, 1e-12), // grows one by a crumb
            (33, 2e-3),  // new entry past the end
        ];
        let view = PpvRef::Aos(&stored);
        let (want, want_clamped) = merge_unclipped(&view, &deposits);
        let mut got = Vec::new();
        let loss = merge_patch(&view, 1.0, &deposits, 1.0, 0.0, &mut got);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
        }
        assert_eq!(loss.clamped.to_bits(), want_clamped.to_bits());
        assert_eq!(loss.clipped, 0.0, "nothing is below a zero clip");
    }

    #[test]
    fn merge_admits_and_keeps_entries_only_at_the_clip() {
        let clip = 1e-4;
        let stored: Vec<(NodeId, f64)> = vec![(1, 0.5), (3, 2e-4), (7, 1.5e-4), (8, 3e-4)];
        let deposits: Vec<(NodeId, f64)> = vec![
            (2, 5e-5),    // new, below the clip: refused
            (3, -1.5e-4), // stored entry falls to 5e-5: dropped
            (4, 2e-4),    // new, at the clip: admitted
            (5, -3e-5),   // negative crumb on nothing: below resolution
            (6, -5e-4),   // negative beyond the resolution: clamped
            (8, -3.2e-4), // stored entry overshoots to -2e-5: dropped
        ];
        let mut got = Vec::new();
        let loss = merge_patch(&PpvRef::Aos(&stored), 1.0, &deposits, 1.0, clip, &mut got);
        assert_eq!(got, vec![(1, 0.5), (4, 2e-4), (7, 1.5e-4)]);
        assert!(got.iter().all(|&(_, s)| s >= clip));
        assert_eq!(loss.clamped, 5e-4);
        let dropped = 5e-5 + (2e-4 - 1.5e-4) + 3e-5 + (3.2e-4 - 3e-4);
        assert!((loss.clipped - dropped).abs() < 1e-18, "{}", loss.clipped);
    }

    #[test]
    fn clipped_patches_charge_what_they_drop_and_stay_sparse() {
        let g0 = barabasi_albert(600, 3, 23);
        let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 40, 0);
        let config = Config::default().with_epsilon(1e-6);
        let delta = DeltaConfig::default().with_budget(0.05);
        let (mut index, _) = build_index(&g0, &hubs, &config);
        let mut g = g0;
        let mut dropped = 0.0;
        for step in 0..40u32 {
            let u = (step * 67 + 11) % 600;
            let g2 = add_edge(&g, u, (u + 101 + step) % 600);
            let (next, stats) =
                refresh_flat_index_snapshot_delta(&index, &g, &g2, &hubs, &[u], &config, &delta);
            assert!(stats.budget_watermark <= delta.budget);
            assert_eq!(stats.live_entries, next.total_entries());
            dropped += stats.clip_dropped;
            index = next;
            g = g2;
        }
        assert!(dropped > 0.0, "no patch ever met the clip");
        // What the patches dropped sits inside the hubs' recorded spend…
        let spent: f64 = hubs.ids().iter().map(|&h| index.budget_spent(h)).sum();
        assert!(spent > 0.0);
        // …no stored entry is below the index's resolution, and the index
        // is the size a fresh build of the final graph is.
        let (rebuilt, _) = build_index(&g, &hubs, &config);
        for &h in hubs.ids() {
            let ppv = index.load(h).unwrap();
            assert!(ppv.entries.entries().iter().all(|&(_, s)| s >= config.clip));
            let l1 = entries_l1(
                ppv.entries.entries(),
                rebuilt.load(h).unwrap().entries.entries(),
            );
            assert!(l1 <= 1.5 * delta.budget, "hub {h}: L1 {l1}");
        }
        let (ours, fresh) = (index.total_entries(), rebuilt.total_entries());
        assert!(
            ours as f64 <= 1.1 * fresh as f64,
            "{ours} entries vs {fresh} fresh"
        );
    }

    #[test]
    fn budget_zero_delta_is_bit_identical_to_exact() {
        let g = barabasi_albert(250, 3, 19);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let (old_index, _) = build_index(&g, &hubs, &config);
        let u = (0..250u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let g2 = add_edge(&g, u, (u + 23) % 250);
        // A zero budget is the exact control: nothing is patched and the
        // refreshed index is a from-scratch build of the new graph, bit
        // for bit.
        let zero = DeltaConfig::default().with_budget(0.0);
        assert_eq!(zero, DeltaConfig::exact());
        let (flat, fs) =
            refresh_flat_index_snapshot_delta(&old_index, &g, &g2, &hubs, &[u], &config, &zero);
        assert!(fs.recomputed > 0);
        assert_eq!(fs.delta_patched, 0);
        let (rebuilt, _) = build_index(&g2, &hubs, &config);
        let bits = |ppv: PrimePpv| -> Vec<(NodeId, u64)> {
            let entries = ppv.entries.entries().iter();
            entries.map(|&(v, s)| (v, s.to_bits())).collect()
        };
        for &h in hubs.ids() {
            let want = bits(rebuilt.load(h).unwrap());
            assert_eq!(bits(flat.load(h).unwrap()), want, "hub {h}");
        }
    }

    #[test]
    fn vacuous_batch_dirties_nothing() {
        let g = barabasi_albert(250, 3, 29);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let config = Config::default();
        let delta = DeltaConfig::default();
        let (old_index, _) = build_index(&g, &hubs, &config);
        let u = (0..250u32).find(|&v| !hubs.is_hub(v)).unwrap();
        assert!(same_adjacency(&g, &g, &[u]));
        // Same graph on both sides: hubs that store mass at the tail find
        // its row unchanged, so no hub sees the batch and nothing is
        // pushed, spent or written.
        let (next, stats) =
            refresh_flat_index_snapshot_delta(&old_index, &g, &g, &hubs, &[u], &config, &delta);
        assert_eq!(stats.dirty(), 0);
        assert_eq!(stats.reused, hubs.len());
        assert_eq!(stats.push_settles, 0);
        assert_eq!(stats.budget_watermark, 0.0);
        for &h in hubs.ids() {
            assert_eq!(
                next.load(h).unwrap().entries,
                old_index.load(h).unwrap().entries,
                "hub {h}"
            );
        }
        // A genuine change is *not* vacuous.
        let g2 = add_edge(&g, u, (u + 11) % 250);
        assert!(!same_adjacency(&g, &g2, &[u]));
    }
}
