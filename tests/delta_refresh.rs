//! Property-based tests of the delta-propagated index refresh: over random
//! graphs and random insert/delete event sequences, the patched index must
//! stay within its *declared* per-hub error budget of an exact rebuild,
//! budget 0 must be bit-identical to that rebuild, and a shard's slice of
//! the arena must refresh its own hubs exactly like the whole arena does.

use fastppv::cluster::{slice_store, ShardMap};
use fastppv::core::dynamic::{
    affected_hubs, refresh_flat_index_snapshot_delta, DeltaConfig, PATCHES_PER_BUDGET,
};
use fastppv::core::index::{FlatIndex, PpvStore};
use fastppv::core::offline::{build_flat_index, build_index};
use fastppv::core::{select_hubs, Config, HubPolicy, HubSet};
use fastppv::graph::builder::{from_edges, GraphBuilder};
use fastppv::graph::gen::{apply_event, barabasi_albert, synth_events, EdgeEvent};
use fastppv::graph::{Graph, NodeId};
use fastppv_bench::workload::Fnv1a;
use proptest::prelude::*;

/// Exact-ish config: no clipping and a deep ε so the rebuild the budget is
/// checked against is the maintained state itself, not a pruning artifact.
fn tight_config() -> Config {
    let mut c = Config::default().with_epsilon(1e-10).with_clip(0.0);
    c.solve_tolerance = 1e-12;
    c
}

fn add_edge(graph: &Graph, u: NodeId, v: NodeId) -> Graph {
    let mut b = GraphBuilder::new(graph.num_nodes());
    for (s, t) in graph.edges() {
        if s == t && s == u {
            continue; // shed the dangling-fix self-loop
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

/// FNV-1a over `(hub, budget_spent bits, (id, score bits)…)` of every hub,
/// in hub-set order: two stores with equal digests hold the same PPVs and
/// the same spends, bit for bit.
fn index_digest(store: &FlatIndex, hubs: &HubSet) -> u64 {
    let mut digest = Fnv1a::default();
    for &h in hubs.ids() {
        digest.update(&h.to_le_bytes());
        digest.update(&store.budget_spent(h).to_bits().to_le_bytes());
        store.view(h).expect("held hub").for_each(|id, s| {
            digest.update(&id.to_le_bytes());
            digest.update(&s.to_bits().to_le_bytes());
        });
    }
    digest.finish()
}

/// The exact path's dependence set: hubs whose `G'(h)` expands `tail`
/// before or after the event (the ε-search, run on both graphs).
fn search_dependents(
    old: &Graph,
    new: &Graph,
    hubs: &HubSet,
    tail: NodeId,
    config: &Config,
) -> Vec<NodeId> {
    let mut affected: Vec<NodeId> = [old, new]
        .into_iter()
        .flat_map(|g| affected_hubs(g, hubs, tail, config.epsilon, config.alpha))
        .collect();
    affected.sort_unstable();
    affected.dedup();
    affected
}

/// The delta path's dependence oracle, recomputed from a store: the held
/// hubs whose stored state sees a change of `tail`'s out-row between `old`
/// and `new` — `tail` itself if it is a hub, otherwise every hub holding a
/// nonzero entry at `tail`; nobody if the row did not change.
fn stored_dependents<S: PpvStore>(
    store: &S,
    hubs: &HubSet,
    old: &Graph,
    new: &Graph,
    tail: NodeId,
) -> Vec<NodeId> {
    if old.out_neighbors(tail) == new.out_neighbors(tail) {
        return Vec::new();
    }
    let holds_mass = |h: NodeId| {
        let view = store.view(h).expect("held hub");
        !matches!(view.score_of(tail), None | Some(0.0))
    };
    let sees = |h: NodeId| {
        if hubs.is_hub(tail) {
            h == tail
        } else {
            holds_mass(h)
        }
    };
    hubs.ids().iter().copied().filter(|&h| sees(h)).collect()
}

/// [`index_digest`] of the arena after the 320 events of
/// `long_event_stream_does_not_bloat_the_index`. Re-pinned when the delta
/// path started pushing each changed tail once for all its holders (and a
/// hub's own row in closed form): a holder's deposits are now the unit
/// push's, scaled by its mass at the tail, and its extent is a rung of the
/// tail's threshold ladder rather than its own halving schedule, so the
/// patched values and spends moved, while the stream's no-bloat and
/// within-spend-of-fresh asserts below still hold. (The pin before it,
/// `0xab39_135e_56d9_ac08`, was the one-push-per-hub path's.)
const LONG_STREAM_DIGEST: u64 = 0xf5e1_63df_132b_231c;

/// Σ `RefreshStats::push_settles` over the same stream: the work its 320
/// events cost, counted. The one-push-per-hub path read 412 824; pushing
/// each tail once reads this.
const LONG_STREAM_SETTLES: usize = 327_532;

/// Σ `recomputed` over the same stream — hubs whose patch would have left
/// the budget. The one-push-per-hub path read the same 173.
const LONG_STREAM_RECOMPUTED: usize = 173;

/// The update path must not grow the index: a long stream of single-edge
/// events at the default clip leaves the arena the size a fresh build
/// of the final graph is, every segment the length a fresh segment is, the
/// arena's resident bytes without a trend, and every stored PPV within the
/// budget of a fresh clipped solve. (Before patches respected the clip
/// every push crumb was stored: most hubs ended with an entry per node.)
#[test]
fn long_event_stream_does_not_bloat_the_index() {
    const EVENTS: usize = 320;
    let g0 = barabasi_albert(2_000, 4, 0xB10A7);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    assert!(
        config.clip > 0.0,
        "the default clip is what keeps patches sparse"
    );
    let delta = DeltaConfig::default().with_budget(0.01);
    let (mut flat, _) = build_flat_index(&g0, &hubs, &config, 1);
    let events = synth_events(&g0, EVENTS, 0.2, 41);
    let resident_at_build = flat.resident_bytes();
    let mut graph = g0;
    let mut resident = Vec::with_capacity(EVENTS);
    let (mut settles, mut recomputed) = (0usize, 0usize);
    for ev in &events {
        let next = apply_event(&graph, ev);
        let (f, fs) = refresh_flat_index_snapshot_delta(
            &flat,
            &graph,
            &next,
            &hubs,
            &[ev.tail],
            &config,
            &delta,
        );
        // The dirty set is exactly the hubs whose *stored* state sees the
        // event, read here from the old store: the tail itself when it is
        // a hub (unit mass on its own row; another hub's row propagates
        // nothing), else every hub holding mass at the tail — provided the
        // tail's row changed at all. Each is patched or recomputed once.
        let seen = stored_dependents(&flat, &hubs, &graph, &next, ev.tail);
        assert!(fs.budget_watermark <= delta.budget, "{fs:?}");
        assert_eq!(fs.dirty(), seen.len(), "{fs:?} after {ev:?}");
        assert!(fs.delta_noop <= fs.delta_patched, "{fs:?}");
        assert_eq!(fs.reused + fs.dirty(), hubs.len(), "{fs:?}");
        // Chunked copy-on-write publish: no event copies more than the
        // arena holds, and a heap-built arena maps nothing.
        assert!(fs.cloned_bytes <= fs.resident_bytes as u64, "{fs:?}");
        assert_eq!(fs.mapped_bytes, 0);
        assert_eq!(fs.live_entries, f.total_entries());
        assert_eq!(fs.resident_bytes, f.resident_bytes());
        // The in-memory norm column follows every patch, recompute and
        // compaction: it is the segment's scores summed in entry order.
        for &h in hubs.ids() {
            assert_eq!(
                f.stored_norm(h).map(f64::to_bits),
                f.view(h).map(|view| view.l1_norm().to_bits()),
                "hub {h} after {ev:?}"
            );
        }
        resident.push(fs.resident_bytes);
        settles += fs.push_settles;
        recomputed += fs.recomputed;
        (flat, graph) = (f, next);
    }
    assert_eq!(
        index_digest(&flat, &hubs),
        LONG_STREAM_DIGEST,
        "stored PPVs or spends moved"
    );
    assert_eq!(
        (settles, recomputed),
        (LONG_STREAM_SETTLES, LONG_STREAM_RECOMPUTED),
        "(push settles, recomputes) over the stream moved"
    );
    assert!(
        flat.resident_bytes() as f64 <= 1.5 * resident_at_build as f64,
        "resident bytes: {resident_at_build} at build, {} after {EVENTS} events",
        flat.resident_bytes()
    );

    let (fresh, _) = build_index(&graph, &hubs, &config);
    let fresh_total = fresh.total_entries() as f64;
    let fresh_longest = hubs
        .ids()
        .iter()
        .map(|&h| fresh.view(h).unwrap().len())
        .max()
        .unwrap();
    let total = flat.total_entries();
    assert!(
        total as f64 <= 1.25 * fresh_total,
        "{total} entries after {EVENTS} events, a fresh build has {fresh_total}"
    );
    for &h in hubs.ids() {
        let want = fresh.load(h).unwrap();
        let stored = flat.load(h).unwrap();
        assert!(
            stored.len() <= 2 * fresh_longest,
            "hub {h}: {} entries, the longest fresh segment has {fresh_longest}",
            stored.len()
        );
        let l1 = entries_l1(stored.entries.entries(), want.entries.entries());
        assert!(
            l1 <= 1.5 * delta.budget,
            "hub {h}: {l1} from a fresh clipped solve (budget {})",
            delta.budget
        );
    }
    // Tombstones come and go with compaction; what must not happen is a
    // trend. The second half peaks no higher than the first (plus slack
    // for where in a compaction cycle each half happens to end).
    let (first, second) = resident.split_at(EVENTS / 2);
    let peak = |half: &[usize]| *half.iter().max().unwrap() as f64;
    assert!(
        peak(second) <= 1.1 * peak(first),
        "resident bytes grew: first-half peak {}, second-half peak {}",
        peak(first),
        peak(second)
    );
}

/// A shard's slice of the arena refreshes exactly the hubs it holds: the
/// hubs it lacks are other shards' to refresh, and recomputing them would
/// balloon the slice back into the whole index on the first event. What
/// it does refresh — entries and spend — is what the whole arena's refresh
/// makes of the same hubs, bit for bit, on the exact path and the delta
/// path alike.
#[test]
fn sliced_arenas_refresh_only_their_hubs_like_the_whole_arena() {
    let g0 = barabasi_albert(2_000, 4, 0xB10A7);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-4);
    let (built, _) = build_flat_index(&g0, &hubs, &config, 1);
    let map = ShardMap::round_robin(g0.num_nodes(), 2);
    let events = synth_events(&g0, 40, 0.2, 41);
    let bits = |index: &FlatIndex, h: NodeId| -> (u64, Vec<(NodeId, u64)>) {
        let entries = index.load(h).unwrap().entries;
        let entries = entries.entries().iter().map(|&(v, s)| (v, s.to_bits()));
        (index.budget_spent(h).to_bits(), entries.collect())
    };
    for budget in [0.0, 0.01] {
        let delta = DeltaConfig::default().with_budget(budget);
        let mut whole = built.clone();
        let mut slices: Vec<FlatIndex> = (0..2)
            .map(|s| slice_store(&built, &hubs, &map, s))
            .collect();
        let owned: Vec<Vec<NodeId>> = slices.iter().map(|s| s.hub_ids().to_vec()).collect();
        let mut graph = g0.clone();
        let mut dirty = 0usize;
        for ev in &events {
            let next = apply_event(&graph, ev);
            let refresh = |index: &FlatIndex| {
                refresh_flat_index_snapshot_delta(
                    index,
                    &graph,
                    &next,
                    &hubs,
                    &[ev.tail],
                    &config,
                    &delta,
                )
            };
            whole = refresh(&whole).0;
            for (slice, owned) in slices.iter_mut().zip(&owned) {
                let (refreshed, stats) = refresh(slice);
                *slice = refreshed;
                let what = format!("budget {budget}, after {ev:?}");
                assert_eq!(slice.hub_ids(), &owned[..], "{what}: {stats:?}");
                assert_eq!(stats.reused + stats.dirty(), owned.len(), "{what}");
                dirty += stats.dirty();
                for &h in owned {
                    assert_eq!(bits(slice, h), bits(&whole, h), "hub {h}, {what}");
                }
            }
            graph = next;
        }
        assert!(dirty > 0, "budget {budget}: no event reached a sliced hub");
    }
}

/// BA-2k plus one node nobody links to (id 2 000, a single out-edge): no
/// walk reaches it, so no hub stores mass there — an edge event at that
/// tail is invisible to every stored PPV.
fn ba_2k_with_an_unreferenced_node() -> (Graph, NodeId) {
    let ba = barabasi_albert(2_000, 4, 0xB10A7);
    let mut edges: Vec<(NodeId, NodeId)> = ba.edges().collect();
    edges.push((2_000, 0));
    (from_edges(2_001, &edges), 2_000)
}

/// An event costs the hubs that hold mass at its tail, not the hubs an
/// ε-search can reach from it — guarded by count, not by a clock. On this
/// stream the stored vectors name 1 hub for every 4.1 the search reaches
/// (Σ dirty 1 799 vs Σ |search set| 7 446 over the 101 events — exact per
/// seed; on BA-2k every referenced node is some hub's near neighbour,
/// BA-20k / 800 hubs reads 1 : 45), and an event no held hub stores
/// pushes nothing.
#[test]
fn an_event_costs_the_hubs_that_hold_mass_at_its_tail() {
    let (g0, unreferenced) = ba_2k_with_an_unreferenced_node();
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let delta = DeltaConfig::default().with_budget(0.01);
    let (mut flat, _) = build_flat_index(&g0, &hubs, &config, 1);
    let invisible = EdgeEvent {
        tail: unreferenced,
        head: 1,
        insert: true,
    };
    let events = [vec![invisible], synth_events(&g0, 100, 0.2, 41)].concat();
    let mut graph = g0;
    let (mut dirty, mut searched, mut settles) = (0usize, 0usize, 0usize);
    for ev in &events {
        let next = apply_event(&graph, ev);
        let seen = stored_dependents(&flat, &hubs, &graph, &next, ev.tail);
        let (f, stats) = refresh_flat_index_snapshot_delta(
            &flat,
            &graph,
            &next,
            &hubs,
            &[ev.tail],
            &config,
            &delta,
        );
        if seen.is_empty() {
            assert_eq!(stats.push_settles, 0, "{stats:?} after {ev:?}");
            assert_eq!(stats.reused, hubs.len(), "{stats:?} after {ev:?}");
        }
        assert!(*ev != invisible || seen.is_empty());
        dirty += stats.dirty();
        settles += stats.push_settles;
        searched += search_dependents(&graph, &next, &hubs, ev.tail, &config).len();
        (flat, graph) = (f, next);
    }
    assert!(settles > 0, "no patch ever pushed");
    assert!(
        4 * dirty <= searched,
        "{dirty} hubs dirtied where the ε-search reaches {searched}"
    );
}

/// With `clip = 0` the stored vector is a strict *superset* oracle: a hub
/// may store mass at a tail its prime subgraph never expanded (an ε-leaf),
/// which the ε-search skips. Such a hub is charged the perturbation as an
/// unpushed no-op — entries untouched, spend grown by at most one patch
/// allowance — and every hub the search does name that stores mass at the
/// tail is dirtied, so nothing the exact path would recompute is missed
/// where the maintained state can see it.
#[test]
fn clip_zero_probe_is_a_conservative_superset_of_the_search() {
    let g0 = barabasi_albert(2_000, 4, 0xB10A7);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default()
        .with_epsilon(1e-6)
        .with_delta(0.0)
        .with_clip(0.0);
    let delta = DeltaConfig::default().with_budget(0.01);
    let (mut flat, _) = build_flat_index(&g0, &hubs, &config, 1);
    let events = synth_events(&g0, 60, 0.2, 41);
    let mut graph = g0;
    let (mut outside, mut inside) = (0usize, 0usize);
    for ev in &events {
        let next = apply_event(&graph, ev);
        let seen = stored_dependents(&flat, &hubs, &graph, &next, ev.tail);
        let searched = search_dependents(&graph, &next, &hubs, ev.tail, &config);
        let (f, stats) = refresh_flat_index_snapshot_delta(
            &flat,
            &graph,
            &next,
            &hubs,
            &[ev.tail],
            &config,
            &delta,
        );
        assert_eq!(stats.dirty(), seen.len(), "{stats:?} after {ev:?}");
        assert_eq!(stats.reused + stats.dirty(), hubs.len(), "{stats:?}");
        for &h in &seen {
            if searched.binary_search(&h).is_ok() {
                inside += 1;
                continue;
            }
            outside += 1;
            assert_eq!(f.load(h), flat.load(h), "hub {h} after {ev:?}");
            let grown = f.budget_spent(h) - flat.budget_spent(h);
            assert!(
                grown > 0.0 && grown <= delta.budget / PATCHES_PER_BUDGET,
                "hub {h} after {ev:?}: spend grew by {grown}"
            );
        }
        (flat, graph) = (f, next);
    }
    assert!(inside > 0, "no event reached a hub the search names");
    assert!(outside > 0, "the probe never exceeded the search");
}

/// A generated case: node count, initial edge list, proposed edge flips.
type GraphAndFlips = (usize, Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// Strategy: a small random directed graph plus a list of proposed edge
/// flips. Each proposal toggles the named edge: delete it when live,
/// insert it otherwise (self-loop proposals are dropped — self-loops are
/// the builder's dangling bookkeeping, not data).
fn graph_and_flips() -> impl Strategy<Value = GraphAndFlips> {
    (6usize..16).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as NodeId, 0..n as NodeId), n..4 * n);
        let flips = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 1..8);
        (Just(n), edges, flips)
    })
}

/// Resolves one proposed flip against the live edge set, or skips it.
fn apply_flip(graph: &Graph, u: NodeId, v: NodeId) -> Option<Graph> {
    if u == v {
        return None;
    }
    if graph.has_edge(u, v) {
        Some(remove_edge(graph, u, v))
    } else {
        Some(add_edge(graph, u, v))
    }
}

/// A generated certificate case: node count, initial edge list, proposed
/// edge-flip batches, and which hub's own row the case rewrites.
type CertificateCase = (
    usize,
    Vec<(NodeId, NodeId)>,
    Vec<Vec<(NodeId, NodeId)>>,
    usize,
);

/// Strategy: [`graph_and_flips`]'s graphs, with the flips grouped into
/// batches of one to three (so a batch may change several tails, or one
/// tail twice), and a hub pick.
fn certificate_case() -> impl Strategy<Value = CertificateCase> {
    (6usize..16).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as NodeId, 0..n as NodeId), n..4 * n);
        let flip = (0..n as NodeId, 0..n as NodeId);
        let batches = prop::collection::vec(prop::collection::vec(flip, 1..4), 1..6);
        (Just(n), edges, batches, 0usize..64)
    })
}

/// The batches a certificate case replays: the generated ones, with a
/// rewrite of hub `h`'s own row spliced into the middle — its out-edges
/// deleted one batch at a time until only the dangling-fix self-loop is
/// left, then two edges inserted back in one batch.
fn with_own_row_rewrite(
    graph: &Graph,
    h: NodeId,
    batches: &[Vec<(NodeId, NodeId)>],
) -> Vec<Vec<(NodeId, NodeId)>> {
    let n = graph.num_nodes() as NodeId;
    let mid = batches.len() / 2;
    let mut script = batches[..mid].to_vec();
    let mut g = graph.clone();
    for batch in &script {
        for &(u, v) in batch {
            g = apply_flip(&g, u, v).unwrap_or(g);
        }
    }
    for &v in g.out_neighbors(h).iter().filter(|&&v| v != h) {
        script.push(vec![(h, v)]);
    }
    script.push(vec![(h, (h + 1) % n), (h, (h + 2) % n)]);
    script.extend_from_slice(&batches[mid..]);
    script
}

/// Proptest case count: `FASTPPV_FUZZ_ROUNDS`, 16 by default.
fn fuzz_rounds() -> u32 {
    std::env::var("FASTPPV_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_rounds()))]

    /// The headline contract: after **every** batch of a random
    /// insert/delete sequence — multi-tail batches, and a hub's own row
    /// shrunk edge by edge to its dangling self-loop and grown back — every
    /// hub of the delta-maintained index is within its *recorded* spend,
    /// itself capped by the declared budget, of a from-scratch rebuild.
    /// Checked at clip 0 and the default clip, budgets 0.01 and 0.05, on
    /// the whole arena and on a two-shard slicing of it.
    ///
    /// At the default clip both sides also carry clip crumbs, which the
    /// spend does not count (module docs of `dynamic`): a hub whose mass
    /// at a tail was clipped away does not see the tail's event at all.
    /// The bound is then the residual form of the certificate. A stored
    /// vector `S` with residual `ρ` is within `|ρ|` of the exact PPV `T`;
    /// dropping `|v|` of score moves `ρ` by at most `(2-α)/α·|v|`, so a
    /// fresh build `F` carries `|ρ| ≤ (2-α)/α·‖T − F‖`, every charged unit
    /// of spend at most `(2-α)/α` more, and a hub's own-row event scales
    /// `ρ` by `d/d′` with the stored entries. Hence
    /// `‖S − F‖ ≤ (2-α)/α·(spend + ‖T₀ − F₀‖·Π d/d′) + ‖T − F‖`, with `F₀`
    /// the last build or recompute the hub's entries equal.
    #[test]
    fn delta_maintained_index_stays_within_declared_budget(
        (n, edges, batches, pick) in certificate_case()
    ) {
        let graph0 = from_edges(n, &edges);
        let hubs = select_hubs(&graph0, HubPolicy::ExpectedUtility, (n / 3).max(2), 0);
        let h = hubs.ids()[pick % hubs.len()];
        let script = with_own_row_rewrite(&graph0, h, &batches);
        let map = ShardMap::round_robin(n, 2);
        let exact = tight_config();
        let factor = (2.0 - exact.alpha) / exact.alpha;
        // ‖T − F‖ per hub, for a fresh build F at `config` of `graph`.
        let crumbs = |graph: &Graph, config: &Config, fresh: &FlatIndex| -> Vec<f64> {
            let mut crumbs = vec![0.0; n];
            if config.clip > 0.0 {
                let (exact, _) = build_index(graph, &hubs, &exact);
                for &h in hubs.ids() {
                    let t = exact.load(h).unwrap();
                    let f = fresh.load(h).unwrap();
                    crumbs[h as usize] = entries_l1(t.entries.entries(), f.entries.entries());
                }
            }
            crumbs
        };
        for clip in [0.0, Config::default().clip] {
            let config = tight_config().with_clip(clip);
            let (built, _) = build_flat_index(&graph0, &hubs, &config, 1);
            let crumbs0 = crumbs(&graph0, &config, &built);
            for budget in [0.01, 0.05] {
                let delta = DeltaConfig::default().with_budget(budget);
                for sliced in [false, true] {
                    let mut arenas: Vec<FlatIndex> = if sliced {
                        (0..2).map(|s| slice_store(&built, &hubs, &map, s)).collect()
                    } else {
                        vec![built.clone()]
                    };
                    // factor · ‖T₀ − F₀‖ · Π d/d′, per hub.
                    let mut carried: Vec<f64> = crumbs0.iter().map(|c| factor * c).collect();
                    let mut graph = graph0.clone();
                    for batch in &script {
                        let mut next = graph.clone();
                        let mut tails = Vec::new();
                        for &(u, v) in batch {
                            if let Some(g) = apply_flip(&next, u, v) {
                                next = g;
                                tails.push(u);
                            }
                        }
                        for arena in &mut arenas {
                            let (patched, stats) = refresh_flat_index_snapshot_delta(
                                arena, &graph, &next, &hubs, &tails, &config, &delta,
                            );
                            prop_assert!(stats.budget_watermark <= delta.budget);
                            prop_assert_eq!(
                                stats.delta_patched + stats.recomputed + stats.reused,
                                patched.hub_ids().len()
                            );
                            *arena = patched;
                        }
                        tails.sort_unstable();
                        tails.dedup();
                        for &u in tails.iter().filter(|&&u| hubs.is_hub(u)) {
                            let (d, d_new) = (graph.out_degree(u), next.out_degree(u));
                            carried[u as usize] *= d as f64 / d_new as f64;
                        }
                        graph = next;
                        let (fresh, _) = build_flat_index(&graph, &hubs, &config, 1);
                        let crumbs = crumbs(&graph, &config, &fresh);
                        for arena in &arenas {
                            for &h in arena.hub_ids() {
                                let ours = arena.load(h).expect("maintained hub");
                                let want = fresh.load(h).expect("rebuilt hub");
                                let l1 = entries_l1(ours.entries.entries(), want.entries.entries());
                                let spent = arena.budget_spent(h);
                                let bound = if clip == 0.0 {
                                    spent
                                } else {
                                    factor * spent + carried[h as usize] + crumbs[h as usize]
                                };
                                prop_assert!(
                                    l1 <= bound + 1e-6,
                                    "clip {}, budget {}, sliced {}, batch {:?}: hub {}: L1 {} \
                                     exceeds {} (recorded spend {})",
                                    clip, budget, sliced, batch, h, l1, bound, spent
                                );
                                if spent == 0.0 && ours == want {
                                    carried[h as usize] = factor * crumbs[h as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Budget 0 must disable the delta path entirely: nothing is patched
    /// and the refreshed index is a from-scratch build of the new graph,
    /// bit for bit.
    #[test]
    fn zero_budget_is_bit_identical_to_exact_refresh(
        (n, edges, flips) in graph_and_flips()
    ) {
        let config = tight_config();
        let graph = from_edges(n, &edges);
        let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, (n / 3).max(2), 0);
        let (flat, _) = build_flat_index(&graph, &hubs, &config, 1);
        let Some(next) = flips
            .iter()
            .find_map(|&(u, v)| apply_flip(&graph, u, v).map(|g| (u, g)))
        else {
            return; // every proposal was a self-loop
        };
        let (u, next) = next;
        let zero = DeltaConfig::default().with_budget(0.0);
        let (flat_zero, flat_stats) = refresh_flat_index_snapshot_delta(
            &flat, &graph, &next, &hubs, &[u], &config, &zero,
        );
        prop_assert_eq!(flat_stats.delta_patched, 0);
        // The exact path's dirty set is the ε-search's: the hubs whose
        // G'(h) expands the tail, before or after the event.
        let searched = search_dependents(&graph, &next, &hubs, u, &config);
        prop_assert_eq!(flat_stats.recomputed, searched.len());
        prop_assert_eq!(flat_stats.push_settles, 0);
        let (exact, _) = build_index(&next, &hubs, &config);
        let bits = |entries: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            entries.iter().map(|&(v, s)| (v, s.to_bits())).collect()
        };
        for &h in hubs.ids() {
            let want = bits(exact.load(h).unwrap().entries.entries());
            prop_assert_eq!(bits(flat_zero.load(h).unwrap().entries.entries()), want);
            prop_assert_eq!(flat_zero.budget_spent(h), 0.0);
        }
    }
}
