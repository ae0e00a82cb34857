//! The paper's formal claims, checked on random graphs (the unit tests
//! cover the toy example; here the same statements are exercised across
//! sizes, seeds and hub fractions).

use fastppv::baselines::exact::{exact_ppv, ExactOptions};
use fastppv::baselines::naive::partition_by_hub_length_with_pruned;
use fastppv::core::error::l1_error_bound;
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy};
use fastppv::graph::gen::{barabasi_albert, erdos_renyi};

/// Untruncated configuration: Theorems 1/2 and Eq. 6 hold exactly.
fn exact_config() -> Config {
    Config::default()
        .with_epsilon(1e-12)
        .with_delta(0.0)
        .with_clip(0.0)
}

#[test]
fn theorem_1_monotone_convergence_to_exact() {
    for seed in [1u64, 2, 3] {
        let g = barabasi_albert(250, 3, seed);
        let config = exact_config();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 25, 0);
        let (index, _) = build_flat_index(&g, &hubs, &config, 2);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let q = (seed * 37 % 250) as u32;
        let exact = exact_ppv(&g, q, ExactOptions::default());
        let mut session = engine.session(q);
        let mut prev_scores = session.estimate().clone();
        for _ in 0..30 {
            // Estimates never exceed the exact PPV (they sum tour subsets).
            for &(v, s) in session.estimate().entries() {
                assert!(s <= exact[v as usize] + 1e-9, "seed {seed} node {v}");
            }
            if !session.step() {
                break;
            }
            for &(v, s) in prev_scores.entries() {
                assert!(
                    session.estimate().get(v) >= s - 1e-12,
                    "monotonicity broken at node {v}"
                );
            }
            prev_scores = session.estimate().clone();
        }
        // After enough iterations the estimate matches the exact PPV
        // (φ decays geometrically; 30 iterations reach ~1e-6).
        assert!(
            session.l1_error() < 1e-5,
            "seed {seed}: {}",
            session.l1_error()
        );
    }
}

#[test]
fn theorem_2_bound_holds_across_graph_families() {
    for (name, g) in [
        ("ba", barabasi_albert(300, 3, 7)),
        ("er", erdos_renyi(300, 1500, 7)),
    ] {
        let config = exact_config();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let (index, _) = build_flat_index(&g, &hubs, &config, 2);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        for q in [0u32, 111, 299] {
            let mut session = engine.session(q);
            for k in 0..8 {
                assert!(
                    session.l1_error() <= l1_error_bound(0.15, k) + 1e-9,
                    "{name} q {q} k {k}"
                );
                if !session.step() {
                    break;
                }
            }
        }
    }
}

#[test]
fn eq_6_reported_error_equals_true_gap() {
    let g = barabasi_albert(200, 3, 11);
    let config = exact_config();
    let hubs = select_hubs(&g, HubPolicy::PageRank, 20, 0);
    let (index, _) = build_flat_index(&g, &hubs, &config, 2);
    let engine = QueryEngine::new(&g, &hubs, &index, config);
    for q in [3u32, 50, 170] {
        let exact = exact_ppv(&g, q, ExactOptions::default());
        let mut session = engine.session(q);
        for _ in 0..5 {
            let reported = session.l1_error();
            let true_gap = session.estimate().l1_distance_dense(&exact);
            assert!(
                (reported - true_gap).abs() < 1e-6,
                "q {q}: reported {reported} true {true_gap}"
            );
            if !session.step() {
                break;
            }
        }
    }
}

#[test]
fn increments_equal_naive_partitions_on_random_graphs() {
    // Theorem 3/4 (tour assembly): per-iteration increments must equal the
    // hub-length tour partitions — checked against literal enumeration.
    for seed in [5u64, 6] {
        let g = erdos_renyi(40, 120, seed);
        let config = exact_config();
        let hubs = select_hubs(&g, HubPolicy::OutDegree, 6, 0);
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let (parts, pruned) = partition_by_hub_length_with_pruned(&g, 0, hubs.mask(), 0.15, 1e-9);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let result = engine.query(0, &StoppingCondition::iterations(4));
        // The naive side prunes whole tour subtrees once their walk
        // probability drops below the threshold, so each of its partitions
        // is missing some mass — but a computable amount: a subtree pruned
        // at hub length l only loses tours of hub length ≥ l, so partition
        // L is short by at most Σ_{l ≤ L} pruned[l].
        let total_pruned: f64 = pruned.iter().sum();
        assert!(
            (0.0..0.1).contains(&total_pruned),
            "seed {seed}: pruned mass {total_pruned} leaves no test signal"
        );
        // Sanity-tie the per-level bookkeeping to the exact PPV: the true
        // missing mass never exceeds the accumulated per-level bounds.
        let exact = exact_ppv(&g, 0, ExactOptions::default());
        let enumerated: f64 = parts.iter().map(|p| p.iter().sum::<f64>()).sum();
        let true_missing = exact.iter().sum::<f64>() - enumerated;
        assert!(
            (-1e-9..=total_pruned + 1e-9).contains(&true_missing),
            "seed {seed}: missing {true_missing} vs pruned bound {total_pruned}"
        );
        let mut budget = 0.0; // Σ_{l ≤ L} pruned[l], grown level by level
        for stat in &result.iteration_stats {
            budget += pruned.get(stat.iteration).copied().unwrap_or(0.0);
            let expected: f64 = parts
                .get(stat.iteration)
                .map(|p| p.iter().sum())
                .unwrap_or(0.0);
            let gap = stat.increment_mass - expected;
            // The engine's increment can only exceed the pruned naive
            // partition (up to its own ε=1e-12 truncation), and never by
            // more than the pruned mass attributable to levels ≤ this one.
            assert!(
                (-1e-6..=budget + 1e-9).contains(&gap),
                "seed {seed} level {}: {} vs {expected} (budget {budget:.3e})",
                stat.iteration,
                stat.increment_mass
            );
        }
    }
}

#[test]
fn truncated_configs_stay_conservative() {
    // With ε/δ/clip truncation the estimate remains an underestimate and φ
    // remains a valid upper bound on the true L1 gap.
    let g = barabasi_albert(300, 3, 13);
    let config = Config::default(); // paper defaults, truncation on
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
    let (index, _) = build_flat_index(&g, &hubs, &config, 2);
    let engine = QueryEngine::new(&g, &hubs, &index, config);
    for q in [10u32, 150] {
        let exact = exact_ppv(&g, q, ExactOptions::default());
        let r = engine.query(q, &StoppingCondition::iterations(3));
        for &(v, s) in r.scores.entries() {
            assert!(s <= exact[v as usize] + 1e-9);
        }
        let true_gap = r.scores.l1_distance_dense(&exact);
        assert!(r.l1_error >= true_gap - 1e-9);
    }
}
