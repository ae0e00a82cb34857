//! Smoke test of the README / `examples/quickstart.rs` path: generate a
//! graph, build an index offline, query online, tighten accuracy. The
//! examples themselves are compiled by `cargo build --examples` in CI; this
//! runs the same library calls at a debug-friendly scale so a broken
//! quickstart fails `cargo test` too.

use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::barabasi_albert;

#[test]
fn quickstart_path_runs_to_completion() {
    let graph = barabasi_albert(2_000, 4, 42);
    assert_eq!(graph.num_nodes(), 2_000);
    assert!(graph.num_edges() > 0);

    let config = Config::default().with_epsilon(1e-5).with_delta(5e-4);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 100, 0);
    let (index, stats) = build_flat_index(&graph, &hubs, &config, 4);
    assert_eq!(stats.hubs, 100);
    assert!(stats.total_entries > 0);
    assert!(stats.storage_bytes > 0);

    let engine = QueryEngine::new(&graph, &hubs, &index, config);
    let query = 1_234;
    let result = engine.query(query, &StoppingCondition::iterations(2));
    assert!(result.iterations <= 2);
    assert!(
        result.l1_error > 0.0 && result.l1_error < 1.0,
        "φ = {}",
        result.l1_error
    );
    let top = result.top_k(10);
    assert_eq!(top.len(), 10);
    assert!(
        top.windows(2).all(|w| w[0].1 >= w[1].1),
        "top-k must be sorted by score"
    );

    // Accuracy-targeted query: φ is known at query time (Eq. 6), so the
    // stopping condition can promise an error bound without ground truth.
    // The δ/clip truncation of the fast config above floors φ, so the
    // guaranteed-accuracy path indexes with truncation off (as in the
    // quickstart's step 4).
    let accurate = Config::default()
        .with_epsilon(1e-7)
        .with_delta(0.0)
        .with_clip(0.0);
    let (index, _) = build_flat_index(&graph, &hubs, &accurate, 4);
    let engine = QueryEngine::new(&graph, &hubs, &index, accurate);
    let precise = engine.query(query, &StoppingCondition::l1_error(0.01));
    assert!(
        precise.l1_error <= 0.01 + 1e-12,
        "requested φ ≤ 0.01, got {}",
        precise.l1_error
    );
    assert!(precise.iterations >= result.iterations);
}
