//! Quickstart: index a graph offline, answer PPV queries online.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::barabasi_albert;

fn main() {
    // 1. A graph. Any `fastppv::graph::Graph` works: build one with
    //    `GraphBuilder`, read an edge list with `graph::io`, or generate one.
    let graph = barabasi_albert(10_000, 4, 42);
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. Offline: select hubs by expected utility (paper Eq. 7) and
    //    precompute their prime PPVs. (ε bounds how deep hub-free
    //    neighborhoods are explored; δ gates which border hubs are expanded
    //    online — see the exp_ablation experiment for their trade-offs.)
    let config = Config::default().with_epsilon(1e-5).with_delta(5e-4);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 500, 0);
    let (index, stats) = build_flat_index(&graph, &hubs, &config, 4);
    println!(
        "offline: {} hubs indexed in {:.2?} ({} entries, {:.1} KB)",
        stats.hubs,
        stats.build_time,
        stats.total_entries,
        stats.storage_bytes as f64 / 1024.0
    );

    // 3. Online: incremental, accuracy-aware queries.
    let engine = QueryEngine::new(&graph, &hubs, &index, config);
    let query = 4321;
    let result = engine.query(query, &StoppingCondition::iterations(2));
    println!(
        "\nquery {query}: {} iterations, guaranteed L1 error ≤ {:.4}, {:.2?}",
        result.iterations, result.l1_error, result.elapsed
    );
    println!("top-10 personalized ranking:");
    for (rank, (node, score)) in result.top_k(10).into_iter().enumerate() {
        println!("  {:>2}. node {node:<6} score {score:.5}", rank + 1);
    }

    // 4. Or run until a target accuracy is met — the error is known at
    //    query time without the exact PPV (paper Eq. 6). Note that the
    //    offline truncation knobs (δ, clip) trade accuracy for index size:
    //    they put a floor under the reachable φ. For guaranteed-accuracy
    //    serving, index with truncation off (ε alone keeps the offline
    //    phase tractable) and let the stopping condition pick the depth.
    let accurate = Config::default()
        .with_epsilon(1e-7)
        .with_delta(0.0)
        .with_clip(0.0);
    let (index, _) = build_flat_index(&graph, &hubs, &accurate, 4);
    let engine = QueryEngine::new(&graph, &hubs, &index, accurate);
    let precise = engine.query(query, &StoppingCondition::l1_error(0.01));
    println!(
        "\nsame query to φ ≤ 0.01: {} iterations, φ = {:.5}",
        precise.iterations, precise.l1_error
    );
}
