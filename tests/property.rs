//! Property-based tests (proptest) over the core data structures and the
//! full pipeline on small random graphs.

use fastppv::baselines::exact::{exact_ppv, ExactOptions};
use fastppv::core::error::l1_error_bound;
use fastppv::core::index::{FlatIndex, PpvStore, PrimePpv};
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{build_flat_index, Config, HubSet};
use fastppv::graph::builder::from_edges;
use fastppv::graph::{NodeId, ScoreScratch, SparseVector};
use fastppv::metrics::{kendall_tau, precision_at_k, rag, AccuracyReport};
use proptest::prelude::*;

/// Strategy: a small random directed graph as (n, edge list).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (4usize..20).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 1..60);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_vector_axpy_matches_dense((xs, ys, coeff) in (
        prop::collection::vec((0u32..50, -10.0..10.0f64), 0..30),
        prop::collection::vec((0u32..50, -10.0..10.0f64), 0..30),
        -4.0..4.0f64,
    )) {
        let a = SparseVector::from_unsorted(xs.clone());
        let b = SparseVector::from_unsorted(ys.clone());
        let mut c = a.clone();
        c.axpy(coeff, &b);
        for v in 0..50u32 {
            let expected = a.get(v) + coeff * b.get(v);
            prop_assert!((c.get(v) - expected).abs() < 1e-9);
        }
        // Entries stay strictly sorted.
        prop_assert!(c.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn borrowed_top_k_selects_what_the_owned_selection_does((pairs, nan_bits, k) in (
        // Few distinct scores, so ties (broken by ascending id) are the
        // common case, plus what `total_cmp` orders and `<` does not:
        // NaNs and the two zeros.
        prop::collection::vec((0u32..400, 0u32..6), 0..120),
        prop::collection::vec(any::<bool>(), 120),
        0usize..140,
    )) {
        let mut seen = std::collections::BTreeMap::new();
        for (i, &(v, level)) in pairs.iter().enumerate() {
            let score = match (nan_bits[i], level) {
                (true, 5) => f64::NAN,
                (true, 0) => -0.0,
                _ => level as f64 * 0.125,
            };
            seen.entry(v).or_insert(score);
        }
        let entries: Vec<(NodeId, f64)> = seen.into_iter().collect();
        let bits = |top: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
            top.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
        };
        let want = bits(fastppv::graph::vec::top_k_entries(entries.clone(), k));
        // Out of a sorted sparse vector, out of the same entries in another
        // order, and out of a dense scratch's touched list.
        let sparse = SparseVector::from_sorted(entries.clone());
        prop_assert_eq!(bits(sparse.top_k(k)), want.clone());
        let reversed = entries.iter().rev().copied();
        prop_assert_eq!(bits(fastppv::graph::vec::top_k_of(reversed, k)), want.clone());
        let mut scratch = ScoreScratch::new(400);
        for &(v, s) in entries.iter().filter(|e| e.1 != 0.0) {
            scratch.add(v, s);
        }
        let nonzero = entries.iter().copied().filter(|e| e.1 != 0.0).collect();
        prop_assert_eq!(
            bits(scratch.top_k(k)),
            bits(fastppv::graph::vec::top_k_entries(nonzero, k))
        );
    }

    #[test]
    fn scratch_reads_match_an_ordered_reference_by_either_method((n, ops, k) in
        (8usize..400).prop_flat_map(|n| {
            // Up to n/4 adds over n slots puts the touched count on both
            // sides of the n/8 switch between sorting the touched ids and
            // one pass over the value array. Level 0 cancels a slot to
            // exactly 0 and touches it again, level 5 only cancels it.
            let ops = prop::collection::vec((0..n as NodeId, -4i32..6), 0..n / 4 + 1);
            (Just(n), ops, 0usize..12)
        })
    ) {
        let score = |level: i32| level as f64 * 0.375;
        let fill = |scratch: &mut ScoreScratch| {
            for &(v, level) in &ops {
                match level {
                    0 | 5 => scratch.add(v, -scratch.get(v)),
                    _ => scratch.add(v, score(level)),
                }
                if level == 0 {
                    scratch.add(v, 0.25);
                }
            }
        };
        let mut reference = std::collections::BTreeMap::new();
        for &(v, level) in &ops {
            let slot = reference.entry(v).or_insert(0.0f64);
            match level {
                0 => *slot = 0.25,
                5 => *slot = 0.0,
                _ => *slot += score(level),
            }
        }
        let want: Vec<(NodeId, f64)> =
            reference.into_iter().filter(|&(_, s)| s != 0.0).collect();
        let bits = |entries: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            entries.iter().map(|&(v, s)| (v, s.to_bits())).collect()
        };
        let want_sum = want.iter().fold(0.0, |total, &(_, s)| total + s);
        let want_top = bits(&fastppv::graph::vec::top_k_entries(want.clone(), k));
        let reads_empty = |scratch: &mut ScoreScratch| {
            scratch.to_sparse().is_empty()
                && scratch.top_k(4).is_empty()
                && scratch.sum() == 0.0
                && (0..n as NodeId).all(|v| scratch.get(v) == 0.0)
        };

        // The non-draining reads keep the scratch; the drain then empties it.
        let mut scratch = ScoreScratch::new(n);
        fill(&mut scratch);
        prop_assert_eq!(bits(scratch.to_sparse().entries()), bits(&want));
        prop_assert_eq!(bits(&scratch.top_k(k)), want_top);
        prop_assert_eq!(scratch.sum().to_bits(), want_sum.to_bits());
        prop_assert_eq!(bits(scratch.drain_sparse().entries()), bits(&want));
        prop_assert!(reads_empty(&mut scratch));

        // The same scratch, refilled: the buffer drain, then a plain clear.
        fill(&mut scratch);
        let mut out = vec![(0, 1.0)];
        scratch.drain_into(&mut out);
        prop_assert_eq!(bits(&out), bits(&want));
        prop_assert!(reads_empty(&mut scratch));
        fill(&mut scratch);
        scratch.clear();
        prop_assert!(reads_empty(&mut scratch));
    }

    #[test]
    fn fastppv_converges_to_exact_on_random_graphs(
        (n, edges) in small_graph(),
        hub_bits in prop::collection::vec(any::<bool>(), 20),
    ) {
        let g = from_edges(n, &edges);
        let hub_ids: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| hub_bits.get(v as usize).copied().unwrap_or(false))
            .collect();
        let hubs = HubSet::from_ids(n, hub_ids);
        let config = Config::exhaustive();
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let q = (edges[0].0 as usize % n) as NodeId;
        let exact = exact_ppv(&g, q, ExactOptions::default());
        let result = engine.query(q, &StoppingCondition::l1_error(1e-8));
        for v in 0..n as NodeId {
            prop_assert!(
                (result.scores.get(v) - exact[v as usize]).abs() < 1e-5,
                "node {} of {}: {} vs {}", v, n, result.scores.get(v), exact[v as usize]
            );
        }
    }

    #[test]
    fn index_codec_round_trips(
        hubs in prop::collection::btree_map(0u32..500, prop::collection::vec(
            (0u32..1000, 1e-6..1.0f64), 0..40), 1..10),
    ) {
        let hub_set = HubSet::from_ids(1000, hubs.keys().copied().collect());
        let ppvs: Vec<(NodeId, PrimePpv)> = hubs
            .iter()
            .map(|(&h, entries)| (h, PrimePpv { entries: SparseVector::from_unsorted(entries.clone()) }))
            .collect();
        let mut index = FlatIndex::new(1000);
        for (h, ppv) in &ppvs {
            index.insert(*h, ppv, &hub_set);
        }
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fastppv-prop-{}-{}.idx",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        index.write_to_file(&path).unwrap();
        let opened = FlatIndex::open(&path).unwrap();
        prop_assert_eq!(opened.hub_count(), index.hub_count());
        for (h, a) in &ppvs {
            // The file stores raw f64: entries come back bit for bit.
            let b = opened.load(*h).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (&(va, sa), &(vb, sb)) in
                a.entries.entries().iter().zip(b.entries.entries())
            {
                prop_assert_eq!(va, vb);
                prop_assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metric_invariants(
        exact in prop::collection::vec(0.0..1.0f64, 5..40),
        approx_entries in prop::collection::vec((0u32..40, 0.0..1.0f64), 1..30),
        k in 1usize..12,
    ) {
        let approx = SparseVector::from_unsorted(
            approx_entries.into_iter()
                .filter(|&(v, _)| (v as usize) < 5.max(exact.len()))
                .filter(|&(v, _)| (v as usize) < exact.len())
                .collect(),
        );
        let tau = kendall_tau(&exact, &approx, k);
        prop_assert!((-1.0..=1.0).contains(&tau), "tau {}", tau);
        let p = precision_at_k(&exact, &approx, k);
        prop_assert!((0.0..=1.0).contains(&p));
        let r = rag(&exact, &approx, k);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r), "rag {}", r);
        // Self-comparison is perfect.
        let self_sparse = SparseVector::from_sorted(
            exact.iter().enumerate()
                .filter(|&(_, &s)| s > 0.0)
                .map(|(i, &s)| (i as u32, s)).collect(),
        );
        let report = AccuracyReport::compute(&exact, &self_sparse, k);
        prop_assert!(report.kendall > 0.999);
        prop_assert!(report.precision > 0.999);
        prop_assert!((report.rag - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_sum_below_one(
        (n, edges) in small_graph(),
    ) {
        // No PPV estimate may ever exceed total probability 1.
        let g = from_edges(n, &edges);
        let hubs = HubSet::from_ids(n, vec![1.min(n as u32 - 1)]);
        let config = Config::default();
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        for q in 0..(n as NodeId).min(4) {
            let r = engine.query(q, &StoppingCondition::iterations(5));
            prop_assert!(r.scores.l1_norm() <= 1.0 + 1e-9);
        }
    }
}

// The Theorem 2 claims (φ is a true upper bound on the L1 gap, and with
// truncation off φ(k) ≤ (1-α)^{k+2}) are the accuracy contract the whole
// scheduled-approximation design rests on, so they get a deeper sweep than
// the structural properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn phi_is_always_a_valid_upper_bound(
        (n, edges) in small_graph(),
        eta in 0usize..4,
    ) {
        let g = from_edges(n, &edges);
        let hubs = HubSet::from_ids(n, vec![0, (n as NodeId) / 2]);
        let config = Config::default(); // truncation on
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let q = (n as NodeId) - 1;
        let exact = exact_ppv(&g, q, ExactOptions::default());
        let result = engine.query(q, &StoppingCondition::iterations(eta));
        let true_gap = result.scores.l1_distance_dense(&exact);
        prop_assert!(result.l1_error >= true_gap - 1e-6);
    }

    #[test]
    fn theorem_2_bound_with_truncation_off(
        (n, edges) in small_graph(),
        hub_bits in prop::collection::vec(any::<bool>(), 20),
    ) {
        // Theorem 2: with truncation off, φ(k) ≤ (1-α)^{k+2} for every
        // query, hub set, and graph — each iteration k covers the tour
        // partition T^k in full, and the uncovered tail decays
        // geometrically.
        let g = from_edges(n, &edges);
        let hub_ids: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| hub_bits.get(v as usize).copied().unwrap_or(false))
            .collect();
        let hubs = HubSet::from_ids(n, hub_ids);
        let config = Config::exhaustive();
        let alpha = config.alpha;
        let (index, _) = build_flat_index(&g, &hubs, &config, 1);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let q = (edges[0].1 as usize % n) as NodeId;
        let mut session = engine.session(q);
        for k in 0..6usize {
            prop_assert!(
                session.l1_error() <= l1_error_bound(alpha, k) + 1e-9,
                "k {}: φ {} > bound {}",
                k,
                session.l1_error(),
                l1_error_bound(alpha, k)
            );
            if !session.step() {
                break;
            }
        }
    }
}
