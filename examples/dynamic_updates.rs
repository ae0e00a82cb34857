//! Dynamic graphs (the paper's future-work §7): maintain the index under
//! edge insertions by recomputing only the affected prime PPVs.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```

use fastppv::core::dynamic::{refresh_flat_index_snapshot_delta, DeltaConfig};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::{SocialNetwork, SocialParams};
use fastppv::graph::{Graph, GraphBuilder};

fn main() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 15_000,
            ..Default::default()
        },
        5,
    );
    let graph = net.graph;
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(
        &graph,
        HubPolicy::ExpectedUtility,
        graph.num_nodes() / 10,
        0,
    );
    let (index, stats) = build_flat_index(&graph, &hubs, &config, 4);
    println!(
        "initial index: {} hubs in {:.2?}",
        stats.hubs, stats.build_time
    );

    // A new friendship appears: 100 -> 9000.
    let (u, v) = (100u32, 9000u32);
    let new_graph = with_edge(&graph, u, v);
    let started = std::time::Instant::now();
    let exact = DeltaConfig::exact();
    let (new_index, refresh) =
        refresh_flat_index_snapshot_delta(&index, &graph, &new_graph, &hubs, &[u], &config, &exact);
    println!(
        "edge ({u} -> {v}) inserted: recomputed {} of {} hub PPVs in {:.2?} \
         (reused {})",
        refresh.recomputed,
        hubs.len(),
        started.elapsed(),
        refresh.reused
    );

    // Queries against the refreshed index reflect the new edge immediately.
    let engine = QueryEngine::new(&new_graph, &hubs, &new_index, config);
    let result = engine.query(u, &StoppingCondition::iterations(2));
    let rank_of_v = result
        .scores
        .top_k(result.scores.len())
        .iter()
        .position(|&(node, _)| node == v);
    println!(
        "after refresh, node {v} ranks #{} for query {u} (score {:.5})",
        rank_of_v.map(|r| r + 1).unwrap_or(0),
        result.scores.get(v)
    );
}

/// `graph` plus one edge (dropping `u`'s dangling-fix self-loop if any).
fn with_edge(graph: &Graph, u: u32, v: u32) -> Graph {
    let mut b = GraphBuilder::new(graph.num_nodes()).with_edge_capacity(graph.num_edges() + 1);
    for (s, t) in graph.edges() {
        if s == t && s == u {
            continue;
        }
        b.add_edge(s, t);
    }
    b.add_edge(u, v);
    b.build()
}
