//! Scenario 2 from the paper's introduction: friends recommendation.
//!
//! "Consider a social network with users as nodes... Given a user in the
//! network, how can we recommend some potential friends to her?" — rank all
//! users by PPV w.r.t. the query user and recommend the top non-friends.
//!
//! ```text
//! cargo run --release --example friend_recommendation
//! ```

use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::{SocialNetwork, SocialParams};

fn main() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 30_000,
            ..Default::default()
        },
        11,
    );
    let graph = &net.graph;
    println!(
        "social network: {} users, {} friendship edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 10, 0);
    let (index, stats) = build_flat_index(graph, &hubs, &config, 4);
    println!("indexed {} hubs in {:.2?}\n", stats.hubs, stats.build_time);

    let engine = QueryEngine::new(graph, &hubs, &index, config);
    let user = 2718;
    let friends = graph.out_neighbors(user);
    println!("user {user} has {} declared friends", friends.len());

    let result = engine.query(user, &StoppingCondition::iterations(2));
    // Recommend the highest-PPV users that are not already friends (and not
    // the user herself).
    let recommendations: Vec<(u32, f64)> = result
        .scores
        .top_k(200)
        .into_iter()
        .filter(|&(v, _)| v != user && !friends.contains(&v))
        .take(10)
        .collect();
    println!(
        "\nrecommended friends (φ ≤ {:.4}, {:.2?}):",
        result.l1_error, result.elapsed
    );
    for (rank, (candidate, score)) in recommendations.iter().enumerate() {
        // Mutual friends explain the recommendation.
        let mutual = graph
            .out_neighbors(*candidate)
            .iter()
            .filter(|&&w| friends.contains(&w))
            .count();
        println!(
            "  {:>2}. user {candidate:<6} affinity {score:.5} ({mutual} mutual friends)",
            rank + 1
        );
    }
}
