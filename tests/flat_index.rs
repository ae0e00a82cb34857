//! The flat SoA arena: determinism, dynamic patching against a rebuild,
//! the file round trip, and a round-trip property test.

use std::collections::BTreeMap;

use fastppv::core::dynamic::{refresh_flat_index_snapshot_delta, DeltaConfig};
use fastppv::core::index::{FlatIndex, PpvStore, PrimePpv};
use fastppv::core::offline::build_flat_index;
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{select_hubs, Config, HubPolicy, HubSet};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::{Graph, GraphBuilder, NodeId, SparseVector};
use proptest::prelude::*;

fn assert_scores_close(a: &SparseVector, b: &SparseVector, tol: f64, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: support sizes differ");
    for (&(va, sa), &(vb, sb)) in a.entries().iter().zip(b.entries()) {
        assert_eq!(va, vb, "{ctx}: node ids diverge");
        assert!(
            (sa - sb).abs() <= tol,
            "{ctx}: node {va}: {sa} vs {sb} (gap {})",
            (sa - sb).abs()
        );
    }
}

#[test]
fn bench_inputs_are_byte_identical_across_builds() {
    // The BENCH determinism contract: two independent builds of the same
    // deployment serve bit-identical result streams and serialize to
    // byte-identical index files (timing fields are the only thing a
    // repeated benchmark run may legitimately change).
    let g = barabasi_albert(2000, 4, 42);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let (flat_a, _) = build_flat_index(&g, &hubs, &config, 1);
    let (flat_b, _) = build_flat_index(&g, &hubs, &config, 2);
    let queries = fastppv_bench::workload::sample_queries_zipf(&g, 64, 1.0, 42);
    let da = fastppv_bench::workload::results_digest(&g, &hubs, &flat_a, config, &queries, 2);
    let db = fastppv_bench::workload::results_digest(&g, &hubs, &flat_b, config, &queries, 2);
    assert_eq!(da, db, "result digests differ across independent builds");

    let mut pa = std::env::temp_dir();
    pa.push(format!("fastppv-flatdet-a-{}.idx", std::process::id()));
    let mut pb = std::env::temp_dir();
    pb.push(format!("fastppv-flatdet-b-{}.idx", std::process::id()));
    flat_a.write_to_file(&pa).unwrap();
    flat_b.write_to_file(&pb).unwrap();
    let bytes_a = std::fs::read(&pa).unwrap();
    let bytes_b = std::fs::read(&pb).unwrap();
    std::fs::remove_file(&pa).unwrap();
    std::fs::remove_file(&pb).unwrap();
    assert_eq!(bytes_a, bytes_b, "serialized arenas differ");
}

fn add_edges(graph: &Graph, new_edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new(graph.num_nodes());
    let gains: std::collections::HashSet<NodeId> = new_edges.iter().map(|&(u, _)| u).collect();
    for (s, t) in graph.edges() {
        // Drop the dangling-fix self-loop once the node gains a real edge.
        if s == t && gains.contains(&s) {
            continue;
        }
        b.add_edge(s, t);
    }
    for &(u, v) in new_edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[test]
fn dynamic_patching_agrees_with_rebuild() {
    // Apply several update batches so the arena accumulates tombstones and
    // crosses the compaction threshold at least once; after every batch the
    // patched arena must answer queries exactly like a fresh build.
    let mut graph = barabasi_albert(600, 3, 9);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 40, 0);
    // ε matched to the graph scale so refreshes stay local (see dynamic.rs).
    let config = Config::default().with_epsilon(1e-4);
    let (mut flat, _) = build_flat_index(&graph, &hubs, &config, 1);
    for round in 0u32..6 {
        let u = (37 * round + 11) % 600;
        let v = (u + 101 + round) % 600;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let new_graph = add_edges(&graph, &[(u, v)]);
        let exact = DeltaConfig::exact();
        let (flat_refreshed, _) = refresh_flat_index_snapshot_delta(
            &flat,
            &graph,
            &new_graph,
            &hubs,
            &[u],
            &config,
            &exact,
        );
        flat = flat_refreshed;
        graph = new_graph;

        let (rebuilt, _) = build_flat_index(&graph, &hubs, &config, 1);
        let engine_patched = QueryEngine::new(&graph, &hubs, &flat, config);
        let engine_rebuilt = QueryEngine::new(&graph, &hubs, &rebuilt, config);
        let stop = StoppingCondition::iterations(3);
        for q in [u, v, hubs.ids()[0], 599] {
            let a = engine_patched.query(q, &stop);
            let b = engine_rebuilt.query(q, &stop);
            let ctx = format!("round {round} q {q} vs rebuild");
            assert_scores_close(&a.scores, &b.scores, 1e-12, &ctx);
        }
    }
    assert!(
        flat.compactions() > 0,
        "updates never exercised arena compaction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arena_round_trips_random_ppv_sets(
        hubs_map in prop::collection::btree_map(0u32..300, prop::collection::vec(
            (0u32..300, 1e-9..1.0f64), 0..50), 1..12),
        replace in prop::collection::vec((0u32..300, prop::collection::vec(
            (0u32..300, 1e-9..1.0f64), 0..50)), 0..4),
    ) {
        let ppv = |entries: &Vec<(NodeId, f64)>| PrimePpv {
            entries: SparseVector::from_unsorted(entries.clone()),
        };
        let mut model: BTreeMap<NodeId, PrimePpv> =
            hubs_map.iter().map(|(&h, entries)| (h, ppv(entries))).collect();
        let hub_ids: Vec<NodeId> = hubs_map.keys().copied().collect();
        let hub_set = HubSet::from_ids(300, hub_ids.clone());
        let mut flat = FlatIndex::new(300);
        for (&h, p) in &model {
            flat.insert(h, p, &hub_set);
        }
        let model_entries = |m: &BTreeMap<NodeId, PrimePpv>| m.values().map(PrimePpv::len).sum::<usize>();
        prop_assert_eq!(flat.hub_count(), model.len());
        prop_assert_eq!(flat.total_entries(), model_entries(&model));

        // Patch a few segments (only over indexed hubs) and mirror in the
        // model; equality must survive tombstoning and compaction.
        for (pick, entries) in &replace {
            let h = hub_ids[*pick as usize % hub_ids.len()];
            flat.replace(h, &ppv(entries), &hub_set);
            model.insert(h, ppv(entries));
        }
        flat.compact();
        prop_assert_eq!(flat.total_entries(), model_entries(&model));
        for &h in &hub_ids {
            let expected = &model[&h];
            let got = flat.load(h).unwrap();
            prop_assert_eq!(&got, expected);
            // Border sublists point exactly at the hub entries.
            let view = flat.view(h).unwrap();
            let (bids, bpos) = flat.border_sublist(h).unwrap();
            let borders: Vec<(NodeId, f64)> = bids
                .iter()
                .zip(bpos)
                .map(|(&b, &p)| (b, view.score_at(p as usize)))
                .collect();
            let want: Vec<(NodeId, f64)> = expected.border_hubs(&hub_set).collect();
            prop_assert_eq!(borders, want);
        }
        prop_assert!(!flat.contains(299) || hubs_map.contains_key(&299));

        // Single-file round trip: write → open (mmap or heap fallback) →
        // bit-exact loads, including the tombstone/compaction history the
        // writer must not leak into the file.
        let path = arena_temp("prop");
        flat.write_to_file(&path).unwrap();
        let opened = FlatIndex::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(opened.hub_count(), flat.hub_count());
        prop_assert_eq!(opened.total_entries(), flat.total_entries());
        for &h in &hub_ids {
            let a = flat.load(h).unwrap();
            let b = opened.load(h).unwrap();
            prop_assert_eq!(a.entries.len(), b.entries.len());
            for (&(va, sa), &(vb, sb)) in
                a.entries.entries().iter().zip(b.entries.entries())
            {
                prop_assert_eq!(va, vb);
                prop_assert_eq!(sa.to_bits(), sb.to_bits());
            }
            prop_assert_eq!(
                flat.budget_spent(h).to_bits(),
                opened.budget_spent(h).to_bits()
            );
            prop_assert_eq!(flat.border_sublist(h), opened.border_sublist(h));
        }
    }
}

/// Unique temp path per call (proptest cases reuse the process).
fn arena_temp(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastppv-arena-it-{}-{case}-{tag}",
        std::process::id()
    ));
    p
}

#[test]
fn mmap_opened_arena_serves_identical_queries() {
    // write → open (mmap or heap fallback) → the opened arena must answer
    // every stopping condition bit-identically to the built one, and carry
    // the per-hub budget spends through.
    let g = barabasi_albert(2000, 4, 42);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 80, 0);
    let config = Config::default().with_epsilon(1e-6);
    let (mut flat, _) = build_flat_index(&g, &hubs, &config, 1);
    let spend_hub = hubs.ids()[3];
    flat.set_budget_spent(spend_hub, 1.25e-3);
    let path = arena_temp("queries");
    flat.write_to_file(&path).unwrap();
    let opened = FlatIndex::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        opened.budget_spent(spend_hub).to_bits(),
        1.25e-3f64.to_bits()
    );
    for &h in hubs.ids() {
        let a = flat.load(h).unwrap();
        let b = opened.load(h).unwrap();
        assert_eq!(a.entries.len(), b.entries.len(), "hub {h}");
        for (&(va, sa), &(vb, sb)) in a.entries.entries().iter().zip(b.entries.entries()) {
            assert_eq!(va, vb, "hub {h}");
            assert_eq!(sa.to_bits(), sb.to_bits(), "hub {h} node {va}");
        }
    }
    let built_engine = QueryEngine::new(&g, &hubs, &flat, config);
    let opened_engine = QueryEngine::new(&g, &hubs, &opened, config);
    let stop = StoppingCondition::l1_error(1e-3).or_iterations(5);
    for q in (0..2000u32).step_by(173) {
        let a = built_engine.query(q, &stop);
        let b = opened_engine.query(q, &stop);
        assert_eq!(a.iterations, b.iterations, "q {q}");
        assert_eq!(a.l1_error.to_bits(), b.l1_error.to_bits(), "q {q}");
        assert_eq!(a.scores.len(), b.scores.len(), "q {q}");
        for (&(va, sa), &(vb, sb)) in a.scores.entries().iter().zip(b.scores.entries()) {
            assert_eq!(va, vb, "q {q}");
            assert_eq!(sa.to_bits(), sb.to_bits(), "q {q} node {va}");
        }
    }
}

#[test]
fn arena_open_corruption_fuzz_never_panics() {
    // Deterministic corruption sweep: truncate at random lengths and flip
    // random bytes. open must return Ok or a typed error — never panic —
    // and when it says Ok, every hub's views must be readable.
    let g = barabasi_albert(400, 3, 7);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
    let config = Config::default().with_epsilon(1e-5);
    let (flat, _) = build_flat_index(&g, &hubs, &config, 1);
    let path = arena_temp("fuzz");
    flat.write_to_file(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rounds: usize = std::env::var("FASTPPV_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let mut opened_ok = 0usize;
    for round in 0..rounds {
        let mut bytes = pristine.clone();
        match round % 3 {
            0 => {
                let cut = rng() as usize % (bytes.len() + 1);
                bytes.truncate(cut);
            }
            1 => {
                let at = rng() as usize % bytes.len();
                bytes[at] ^= (rng() as u8).max(1);
            }
            _ => {
                for _ in 0..4 {
                    let at = rng() as usize % bytes.len();
                    bytes[at] = rng() as u8;
                }
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        // Typed result, never a panic or out-of-bounds read.
        if let Ok(opened) = FlatIndex::open(&path) {
            opened_ok += 1;
            for &h in opened.hub_ids().to_vec().iter() {
                let view = opened.view(h).expect("open accepted the directory");
                view.for_each(|_, s| {
                    let _ = s;
                });
                let _ = opened.border_sublist(h);
                let _ = opened.budget_spent(h);
            }
        }
    }
    // A pristine copy still opens (the loop never mutates `pristine`).
    std::fs::write(&path, &pristine).unwrap();
    FlatIndex::open(&path).expect("pristine file reopens");
    std::fs::remove_file(&path).unwrap();
    // Score-byte flips land in section interiors and are unvalidatable by
    // design (raw f64 payloads), so some corrupt files must legitimately
    // open — the guarantee under test is no panic, not total rejection.
    assert!(opened_ok < rounds, "every corruption was accepted");
}
