//! Scatter/gather reassembly of the scheduled-approximation loop.
//!
//! [`merge_query`] replays [`fastppv_core`]'s incremental query across
//! shards: iteration 0 (`prime0`) comes from one shard — the hub owner
//! when it is alive, any live shard otherwise (non-owners compute prime
//! PPVs on the fly, so the fallback answer is still certified) — and
//! each later iteration partitions the δ-filtered frontier by hub owner
//! and merges the per-shard [`WireExpand`] partials in ascending shard
//! order. The covered-mass ledger is summed router-side in the same
//! order as `IncrementalState`, so `φ = (1 − covered)⁺` is the paper's
//! exact self-certifying L1 bound over exactly the mass that was
//! actually merged:
//!
//! * every shard answered → bit-deterministic merge, equal to the
//!   single-process answer up to floating-point reassociation;
//! * a shard was skipped → its sublist's border mass never converts to
//!   covered mass, φ inflates by exactly that amount, and the answer is
//!   flagged `degraded` — a *true* partial answer with an honest bound,
//!   never a silently wrong one.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fastppv_cluster::ShardMap;
use fastppv_core::query::StoppingCondition;
use fastppv_graph::{NodeId, ScoreScratch};
use fastppv_server::net::{SubReply, WireExpand, WirePrime0};

use crate::backend::BackendError;

/// The shard-side operations the merge loop scatters over. Implemented
/// by [`crate::backend::TcpBackend`] (remote shards, hedged) and
/// [`crate::backend::LocalBackend`] (in-process shards, for tests and
/// single-machine serving).
pub trait SubBackend {
    /// Number of shards addressed by this backend (must equal the shard
    /// map's).
    fn num_shards(&self) -> usize;

    /// Iteration 0 of `query` from `shard`, pinned to `expect_epoch`
    /// (`None` = whatever the shard serves).
    fn prime0(
        &self,
        shard: usize,
        query: NodeId,
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WirePrime0>, BackendError>;

    /// One shard's slice of one increment: expand the frontier hubs this
    /// shard owns (`sublist`, ascending hub id, merged masses).
    fn expand(
        &self,
        shard: usize,
        sublist: &[(NodeId, f64)],
        expect_epoch: Option<u64>,
    ) -> Result<SubReply<WireExpand>, BackendError>;

    /// One increment across shards: `targets` pairs each shard with its
    /// sublist, and the replies come back in `targets` order. The default
    /// expands one target after another; a remote backend overrides it to
    /// put every sub-request in flight before waiting on any.
    fn expand_all(
        &self,
        targets: &[(usize, &[(NodeId, f64)])],
        expect_epoch: Option<u64>,
    ) -> Vec<Result<SubReply<WireExpand>, BackendError>> {
        targets
            .iter()
            .map(|&(shard, sublist)| self.expand(shard, sublist, expect_epoch))
            .collect()
    }
}

/// What the router must know about the cluster's index to merge
/// correctly: the scheduling threshold δ (frontier filter), the
/// teleport α (the trivial tour added at the query), and the node count
/// (entry validation). Discovered from shard hellos at startup.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Teleport probability α of the index.
    pub alpha: f64,
    /// Scheduling threshold δ: frontier hubs at or below it are never
    /// expanded.
    pub delta: f64,
    /// Number of graph nodes (every shard holds the full graph).
    pub num_nodes: usize,
}

/// A reassembled answer.
#[derive(Clone, Debug)]
pub struct MergedAnswer {
    /// The query node.
    pub query: NodeId,
    /// The merged PPV estimate, ascending node id (entry-wise lower
    /// bound on the exact PPV): whole, or only its `k` best entries when
    /// [`merge_query`] was asked for `top_k = k > 0`.
    pub scores: Vec<(NodeId, f64)>,
    /// Certified L1 error φ of the estimate — exact for clean merges,
    /// honestly inflated when shards were skipped.
    pub l1_error: f64,
    /// Increments merged beyond iteration 0.
    pub iterations: usize,
    /// Whether the frontier truly emptied (never set on degraded
    /// answers: a dropped sublist means the frontier did *not* empty).
    pub exhausted: bool,
    /// Whether any expansion sublist was dropped because its owner shard
    /// was down or refused. φ already accounts for the loss.
    pub degraded: bool,
    /// The epoch every merged partial was pinned to.
    pub epoch: u64,
    /// Shards that failed a sub-request during this merge (includes
    /// prime-0 fallbacks that did not degrade the answer).
    pub shards_skipped: Vec<usize>,
    /// Wall-clock time of the merge.
    pub elapsed: Duration,
}

/// Why a merge produced no answer at all.
#[derive(Clone, Debug)]
pub enum MergeError {
    /// No shard could serve iteration 0.
    AllShardsDown,
    /// Shards moved epochs mid-merge twice in a row (once is retried
    /// internally).
    EpochSkew,
    /// A shard refused the query or violated the protocol; not
    /// retryable.
    Shard(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::AllShardsDown => write!(f, "no shard reachable for iteration 0"),
            MergeError::EpochSkew => write!(f, "cluster epoch moved twice mid-query"),
            MergeError::Shard(msg) => write!(f, "shard error: {msg}"),
        }
    }
}

fn check_entries(
    entries: &[(NodeId, f64)],
    num_nodes: usize,
    what: &str,
) -> Result<(), MergeError> {
    for &(p, s) in entries {
        if (p as usize) >= num_nodes {
            return Err(MergeError::Shard(format!(
                "{what} entry node {p} out of range ({num_nodes} nodes)"
            )));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(MergeError::Shard(format!(
                "{what} entry for node {p} has invalid score {s}"
            )));
        }
    }
    Ok(())
}

/// Scatters `query` across the cluster and gathers the merged, certified
/// answer, keeping `top_k` entries of it (0 = the whole estimate; `k > 0`
/// the `k` best, drained straight from `scratch` by
/// [`ScoreScratch::drain_top_k`]). Epoch skew observed mid-merge (a
/// two-phase commit landing between iterations) is retried once from
/// scratch before surfacing as [`MergeError::EpochSkew`].
pub fn merge_query<B: SubBackend>(
    backend: &B,
    map: &ShardMap,
    cfg: &RouterConfig,
    query: NodeId,
    stop: &StoppingCondition,
    top_k: usize,
    scratch: &mut ScoreScratch,
) -> Result<MergedAnswer, MergeError> {
    match merge_once(backend, map, cfg, query, stop, top_k, scratch) {
        Err(MergeError::EpochSkew) => merge_once(backend, map, cfg, query, stop, top_k, scratch),
        other => other,
    }
}

fn merge_once<B: SubBackend>(
    backend: &B,
    map: &ShardMap,
    cfg: &RouterConfig,
    query: NodeId,
    stop: &StoppingCondition,
    top_k: usize,
    scratch: &mut ScoreScratch,
) -> Result<MergedAnswer, MergeError> {
    let started = Instant::now();
    if (query as usize) >= cfg.num_nodes {
        return Err(MergeError::Shard(format!(
            "query node {query} out of range ({} nodes)",
            cfg.num_nodes
        )));
    }
    let n_shards = map.num_shards() as usize;
    assert_eq!(
        backend.num_shards(),
        n_shards,
        "backend and shard map disagree on cluster size"
    );
    scratch.ensure_capacity(cfg.num_nodes);
    scratch.clear();

    // Iteration 0: the owner serves its stored (clipped) prime PPV; any
    // live shard is a correct fallback — non-owned queries are computed
    // on the fly from the shared graph.
    let owner = map.owner(query) as usize;
    let mut skipped: Vec<usize> = Vec::new();
    let mut prime0: Option<WirePrime0> = None;
    for i in 0..n_shards {
        let shard = (owner + i) % n_shards;
        match backend.prime0(shard, query, None) {
            Ok(SubReply::Ok(v)) => {
                prime0 = Some(v);
                break;
            }
            Ok(SubReply::Error(msg)) => return Err(MergeError::Shard(msg)),
            Err(BackendError::Protocol { shard, message }) => {
                return Err(MergeError::Shard(format!("shard {shard}: {message}")))
            }
            // An unpinned request cannot skew, but a shard mid-commit may
            // report it; treat like any transient failure and fall back.
            Ok(SubReply::EpochSkew { .. }) | Err(BackendError::ShardDown(_)) => {
                skipped.push(shard);
            }
        }
    }
    let Some(prime0) = prime0 else {
        return Err(MergeError::AllShardsDown);
    };
    check_entries(&prime0.entries, cfg.num_nodes, "prime0")?;
    check_entries(&prime0.frontier, cfg.num_nodes, "prime0 frontier")?;
    let epoch = prime0.epoch;

    // Replay IncrementalState::new's ledger order exactly: the prime-PPV
    // entries, then the trivial tour α at the query.
    let mut covered = 0.0;
    for &(p, s) in &prime0.entries {
        scratch.add(p, s);
        covered += s;
    }
    scratch.add(query, cfg.alpha);
    covered += cfg.alpha;

    let mut frontier: Vec<(NodeId, f64)> = prime0.frontier;
    let mut iterations = 0usize;
    let mut exhausted = false;
    let mut degraded = false;

    loop {
        let l1 = (1.0 - covered).max(0.0);
        if stop.met(iterations, l1, started.elapsed()) {
            break;
        }
        // δ-filter before partitioning (shards skip ≤ δ hubs anyway;
        // filtering here keeps exhaustion detection router-side).
        let live: Vec<(NodeId, f64)> = frontier
            .iter()
            .copied()
            .filter(|&(_, m)| m > cfg.delta)
            .collect();
        if live.is_empty() {
            // On a clean merge this is the single-process "frontier
            // emptied". After a dropped sublist it is not — the frontier
            // would have kept going — so stay un-exhausted and let φ
            // carry the loss.
            exhausted = !degraded;
            break;
        }
        // Partition by owner; the stable pass preserves ascending hub id
        // within each sublist (the order shard-side expansion requires).
        let mut sublists: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n_shards];
        for &(h, m) in &live {
            sublists[map.owner(h) as usize].push((h, m));
        }
        let targets: Vec<(usize, &[(NodeId, f64)])> = sublists
            .iter()
            .enumerate()
            .filter(|(_, sublist)| !sublist.is_empty())
            .map(|(s, sublist)| (s, sublist.as_slice()))
            .collect();

        // Scatter: one sub-request per owning shard (a remote backend
        // puts them all in flight at once); each reply is individually
        // bounded (health gate, hedging, timeouts). Replies come back in
        // `targets` order — ascending shard, the fixed merge order that
        // makes the reassembled floating-point sums deterministic.
        let gathered = backend.expand_all(&targets, Some(epoch));

        let mut next: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut expanded = 0usize;
        let mut dropped = false;
        for (&(shard, _), reply) in targets.iter().zip(gathered) {
            match reply {
                Ok(SubReply::Ok(x)) => {
                    check_entries(&x.entries, cfg.num_nodes, "expand")?;
                    check_entries(&x.frontier, cfg.num_nodes, "expand frontier")?;
                    for &(p, v) in &x.entries {
                        scratch.add(p, v);
                    }
                    covered += x.increment_mass;
                    for &(h, m) in &x.frontier {
                        *next.entry(h).or_insert(0.0) += m;
                    }
                    expanded += x.hubs_expanded as usize;
                }
                Ok(SubReply::EpochSkew { .. }) => return Err(MergeError::EpochSkew),
                Err(BackendError::Protocol { shard, message }) => {
                    return Err(MergeError::Shard(format!("shard {shard}: {message}")))
                }
                // A down or refusing owner drops its sublist: that border
                // mass stays unconverted, so φ inflates by exactly the
                // dropped amount and the answer is flagged degraded.
                Ok(SubReply::Error(_)) | Err(BackendError::ShardDown(_)) => {
                    dropped = true;
                    if !skipped.contains(&shard) {
                        skipped.push(shard);
                    }
                }
            }
        }
        if dropped {
            degraded = true;
        }
        if expanded == 0 {
            // Every owning shard dropped its sublist: the whole remaining
            // frontier is dead-owned and no further progress is possible
            // right now. Stop with the honestly inflated φ.
            break;
        }
        frontier = next.into_iter().collect();
        iterations += 1;
    }

    let l1_error = (1.0 - covered).max(0.0);
    Ok(MergedAnswer {
        query,
        scores: scratch.drain_top_k(top_k).into_entries(),
        l1_error,
        iterations,
        exhausted,
        degraded,
        epoch,
        shards_skipped: skipped,
        elapsed: started.elapsed(),
    })
}
