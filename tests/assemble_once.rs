//! The online loop's two kernels (`crate::core::query`, "Two kernels:
//! advance every round, assemble once"): rounds run on hub coordinates and
//! the stored norms, the stored PPVs are scanned in one deferred pass.
//! Checked here three ways — the deferred answer equals a round-by-round
//! reference that assembles every round, the norm column the rounds lean
//! on is bit-equal to the scores it summarises wherever a segment comes
//! from, and the scan is bounded by a count the product keeps, not a clock.

use fastppv::cluster::{slice_store, ShardMap};
use fastppv::core::index::{FlatIndex, PpvStore};
use fastppv::core::offline::build_flat_index;
use fastppv::core::query::{
    expand_frontier, QueryEngine, QueryResult, QueryWorkspace, StoppingCondition,
};
use fastppv::core::{select_hubs, Config, HubPolicy, HubSet};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::vec::top_k_entries;
use fastppv::graph::{Graph, NodeId};
use proptest::prelude::*;

/// One round of the reference, as `IterationStats` would record it.
struct Round {
    hubs_expanded: usize,
    increment_mass: f64,
}

/// The query assembled round by round through the public scattered entry
/// points, the way the router's `merge_query` and ppvbench's
/// `replay_expand` drive them: every round scans every expanded hub's
/// stored PPV and returns that round's increment.
struct Reference {
    scores: Vec<f64>,
    phi: f64,
    rounds: Vec<Round>,
}

fn reference_query(
    g: &Graph,
    hubs: &HubSet,
    store: &FlatIndex,
    config: &Config,
    q: NodeId,
    stop: &StoppingCondition,
) -> Reference {
    let mut ws = QueryWorkspace::new(g.num_nodes());
    let (entries, mut frontier) = ws.prime0_parts(g, hubs, store, q, config);
    let mut scores = vec![0.0; g.num_nodes()];
    let mut covered = 0.0;
    for &(v, s) in &entries {
        scores[v as usize] += s;
        covered += s;
    }
    scores[q as usize] += config.alpha;
    covered += config.alpha;
    let mut rounds = Vec::new();
    loop {
        let phi = (1.0 - covered).max(0.0);
        let done = stop.max_iterations.is_some_and(|k| rounds.len() >= k)
            || stop.l1_target.is_some_and(|t| phi <= t);
        if done {
            break;
        }
        let outcome = expand_frontier(&frontier, hubs, store, config, ws.increment_scratch())
            .expect("every hub is stored");
        if outcome.hubs_expanded == 0 {
            break;
        }
        for &(v, s) in outcome.entries.entries() {
            scores[v as usize] += s;
        }
        covered += outcome.increment_mass;
        rounds.push(Round {
            hubs_expanded: outcome.hubs_expanded,
            increment_mass: outcome.increment_mass,
        });
        frontier = outcome.frontier;
    }
    Reference {
        scores,
        phi: (1.0 - covered).max(0.0),
        rounds,
    }
}

fn assert_matches_reference(got: &QueryResult, want: &Reference, what: &str) {
    assert_eq!(got.iterations, want.rounds.len(), "{what}: iterations");
    assert!(
        (got.l1_error - want.phi).abs() <= 1e-12,
        "{what}: φ {} vs {}",
        got.l1_error,
        want.phi
    );
    for (stats, round) in got.iteration_stats[1..].iter().zip(&want.rounds) {
        assert_eq!(
            stats.hubs_expanded, round.hubs_expanded,
            "{what}: round {} hubs expanded",
            stats.iteration
        );
        assert!(
            (stats.increment_mass - round.increment_mass).abs() <= 1e-12,
            "{what}: round {} mass {} vs {}",
            stats.iteration,
            stats.increment_mass,
            round.increment_mass
        );
    }
    let mut dense = vec![0.0; want.scores.len()];
    for &(v, s) in got.scores.entries() {
        dense[v as usize] = s;
    }
    for (v, (a, b)) in dense.iter().zip(&want.scores).enumerate() {
        assert!((a - b).abs() <= 1e-12, "{what}: node {v}: {a} vs {b}");
    }
}

/// `IncrementalState::certified_top_k`'s rule over the reference's dense
/// estimate; `None` also when the call is too close for 1e-12 of
/// reassociation not to decide it (the caller skips those).
fn reference_certified(want: &Reference, k: usize) -> Option<Option<Vec<NodeId>>> {
    let live = (want.scores.iter().enumerate())
        .filter(|&(_, &s)| s != 0.0)
        .map(|(v, &s)| (v as NodeId, s))
        .collect();
    let top = top_k_entries(live, k + 1);
    if top.windows(2).any(|w| (w[0].1 - w[1].1).abs() < 1e-9) {
        return None;
    }
    let kth = top.get(k - 1).map_or(0.0, |e| e.1);
    let next = top.get(k).map_or(0.0, |e| e.1);
    if ((kth - next) - want.phi).abs() < 1e-9 {
        return None;
    }
    let certified = top.len() >= k && kth - next >= want.phi;
    Some(certified.then(|| top[..k].iter().map(|e| e.0).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deferred_assembly_equals_assembling_every_round(
        n in 150usize..500,
        density in 2usize..5,
        seed in 0u64..1_000,
        hub_divisor in 8usize..25,
        exact_delta in any::<bool>(),
        eta in 0usize..6,
        stop_kind in 0usize..3,
        hub_source in any::<bool>(),
        source_pick in 0usize..1_000,
        k in 1usize..8,
    ) {
        let g = barabasi_albert(n, density, seed);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, n / hub_divisor, 0);
        let mut config = Config::default().with_epsilon(1e-8).with_clip(0.0);
        if exact_delta {
            config = config.with_delta(0.0);
        }
        let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
        let q = if hub_source {
            hubs.ids()[source_pick % hubs.len()]
        } else {
            let others: Vec<NodeId> = g.nodes().filter(|&v| !hubs.is_hub(v)).collect();
            others[source_pick % others.len()]
        };
        let stop = match stop_kind {
            0 => StoppingCondition::iterations(eta),
            1 => StoppingCondition::l1_error(0.1),
            _ => StoppingCondition::l1_error(0.05).or_iterations(eta),
        };
        let engine = QueryEngine::new(&g, &hubs, &flat, config);
        let what = format!("n {n} seed {seed} q {q} δ {} stop {stop:?}", config.delta);
        let want = reference_query(&g, &hubs, &flat, &config, q, &stop);
        assert_matches_reference(&engine.query(q, &stop), &want, &what);

        // The same rounds through a session that reads its estimate after
        // every one of them: each read assembles what is pending, and the
        // certificate after the last round is the reference's.
        let mut session = engine.session(q);
        for _ in 0..want.rounds.len() {
            prop_assert!(session.step());
            session.top_k(k);
        }
        if let Some(expected) = reference_certified(&want, k) {
            let got = session.certified_top_k(k);
            assert_eq!(
                got.map(|set| set.iter().map(|e| e.0).collect::<Vec<_>>()),
                expected,
                "{what}: certified top-{k}"
            );
        }
        assert_matches_reference(&session.into_result(), &want, &what);
    }
}

fn ba2k() -> (Graph, HubSet, Config) {
    let g = barabasi_albert(2_000, 4, 42);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6).with_delta(0.0);
    (g, hubs, config)
}

/// The guard that reads no clock (like `SolveWork` in `tests/allowance.rs`):
/// however many rounds a query runs, its assemble pass scans each stored
/// PPV at most once — where assembling every round scans a hub once per
/// round that expands it.
#[test]
fn a_query_scans_each_stored_ppv_at_most_once() {
    let (g, hubs, config) = ba2k();
    let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
    let engine = QueryEngine::new(&g, &hubs, &flat, config);
    let mut ws = engine.workspace();
    let non_hub = g.nodes().find(|&v| !hubs.is_hub(v)).unwrap();
    let phi_stop = StoppingCondition::l1_error(0.1);
    let mut multi_round_queries = 0;
    for q in [hubs.ids()[0], hubs.ids()[41], non_hub] {
        for stop in [phi_stop, StoppingCondition::iterations(8)] {
            let result = engine.query_with(&mut ws, q, &stop);
            let scan = ws.last_scan();
            assert!(
                scan.hubs_scanned <= flat.hub_count()
                    && scan.entries_scanned <= flat.total_entries(),
                "q {q} {stop:?}: {scan:?} exceeds the arena ({} hubs, {} entries)",
                flat.hub_count(),
                flat.total_entries()
            );
            // What assembling every round scans: replay the rounds.
            let (_, mut frontier) = ws.prime0_parts(&g, &hubs, &flat, q, &config);
            let (mut hubs_per_round, mut entries_per_round) = (0, 0);
            for stats in &result.iteration_stats[1..] {
                entries_per_round += frontier
                    .iter()
                    .filter(|&&(_, mass)| mass > config.delta)
                    .map(|&(h, _)| flat.view(h).unwrap().len())
                    .sum::<usize>();
                let outcome =
                    expand_frontier(&frontier, &hubs, &flat, &config, ws.increment_scratch())
                        .unwrap();
                assert_eq!(outcome.hubs_expanded, stats.hubs_expanded);
                // A single call assembles exactly what it advanced over.
                assert_eq!(ws.last_scan().hubs_scanned, outcome.hubs_expanded);
                hubs_per_round += outcome.hubs_expanded;
                frontier = outcome.frontier;
            }
            if result.iterations >= 2 {
                multi_round_queries += 1;
                assert!(
                    scan.hubs_scanned < hubs_per_round && scan.entries_scanned < entries_per_round,
                    "q {q} {stop:?}: {scan:?} after {} rounds that expanded \
                     {hubs_per_round} hubs / {entries_per_round} entries",
                    result.iterations
                );
            } else {
                assert_eq!(scan.hubs_scanned, hubs_per_round);
                assert_eq!(scan.entries_scanned, entries_per_round);
            }
        }
    }
    assert!(
        multi_round_queries >= 3,
        "workload too shallow to exercise the deferred pass"
    );
}

fn assert_norms_are_the_scores_summed(store: &impl PpvStore, hubs: &[NodeId], what: &str) {
    for &h in hubs {
        let norm = store.stored_norm(h).expect("stored hub");
        let summed = store.view(h).unwrap().l1_norm();
        assert_eq!(
            norm.to_bits(),
            summed.to_bits(),
            "{what}: hub {h}: stored norm {norm} but its scores sum to {summed}"
        );
    }
}

/// The norm column is derived data held beside what it is derived from:
/// every way a segment comes to exist must leave it bit-equal to the sum
/// of the segment's scores in entry order.
#[test]
fn stored_norms_follow_every_way_a_segment_is_written() {
    let (g, hubs, config) = ba2k();
    let (mut flat, _) = build_flat_index(&g, &hubs, &config, 1);
    assert_norms_are_the_scores_summed(&flat, hubs.ids(), "built");
    let non_hub = g.nodes().find(|&v| !hubs.is_hub(v)).unwrap();
    assert_eq!(flat.stored_norm(non_hub), None);

    // Patch a third of the hubs with halved copies of a neighbour's PPV,
    // which tombstones, appends, and eventually compacts.
    let before = flat.compactions();
    for round in 0..3 {
        for (i, &h) in hubs.ids().iter().enumerate().skip(round).step_by(3) {
            let donor = hubs.ids()[(i + 1) % hubs.len()];
            let mut patched = flat.load(donor).unwrap().entries.into_entries();
            patched.iter_mut().for_each(|e| e.1 *= 0.5);
            flat.replace_entries(h, &patched, &hubs);
        }
        assert_norms_are_the_scores_summed(&flat, hubs.ids(), "patched");
    }
    assert!(flat.compactions() > before, "patching never compacted");
    flat.compact();
    assert_norms_are_the_scores_summed(&flat, hubs.ids(), "compacted");

    let path = std::env::temp_dir().join(format!("fastppv-norms-{}.fppv", std::process::id()));
    flat.write_to_file(&path).unwrap();
    let opened = FlatIndex::open(&path).unwrap();
    assert_norms_are_the_scores_summed(&opened, hubs.ids(), "opened from its file");
    for &h in hubs.ids() {
        assert_eq!(opened.stored_norm(h), flat.stored_norm(h), "hub {h}");
    }
    drop(opened);
    std::fs::remove_file(&path).unwrap();

    // A shard's slice answers through the trait's default, to the same bits.
    let map = ShardMap::round_robin(g.num_nodes(), 2);
    for shard in 0..2 {
        let slice = slice_store(&flat, &hubs, &map, shard);
        let owned = map.owned_hubs(&hubs, shard);
        assert_norms_are_the_scores_summed(&slice, &owned, "sliced");
        for &h in &owned {
            assert_eq!(slice.stored_norm(h), flat.stored_norm(h), "sliced hub {h}");
        }
    }
}
