//! The paper's headline feature: incremental, accuracy-aware queries.
//!
//! Walks one query through the incremental session API, printing after
//! every iteration the accuracy-aware L1 error φ (Eq. 6) next to the
//! Theorem 2 bound `(1-α)^{k+2}`, then shows the other two stopping modes
//! (accuracy target and time budget).
//!
//! ```text
//! cargo run --release --example accuracy_tradeoff
//! ```

use std::time::Duration;

use fastppv::core::error::l1_error_bound;
use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::{SocialNetwork, SocialParams};

fn main() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 20_000,
            ..Default::default()
        },
        3,
    );
    let graph = &net.graph;
    // δ = 0 and clip = 0: no truncation, so φ decays toward 0 and the
    // Theorem 2 bound applies exactly.
    let config = Config::default()
        .with_epsilon(1e-8)
        .with_delta(0.0)
        .with_clip(0.0);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 10, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 4);
    let engine = QueryEngine::new(graph, &hubs, &index, config);

    println!("incremental session for query 777:");
    println!(
        "{:>4}  {:>12}  {:>14}  {:>10}  {:>8}",
        "k", "φ(k) (Eq. 6)", "Thm 2 bound", "increment", "hubs"
    );
    let mut session = engine.session(777);
    loop {
        let stats = *session.iteration_stats().last().unwrap();
        println!(
            "{:>4}  {:>12.6}  {:>14.6}  {:>10.6}  {:>8}",
            stats.iteration,
            stats.l1_error_after,
            l1_error_bound(config.alpha, stats.iteration),
            stats.increment_mass,
            stats.hubs_expanded
        );
        if session.l1_error() < 1e-2 || session.iterations_done() >= 10 || !session.step() {
            break;
        }
    }
    let result = session.into_result();
    println!(
        "reached φ = {:.2e} after {} iterations ({:.2?})\n",
        result.l1_error, result.iterations, result.elapsed
    );

    // Accuracy-target mode: "give me 1% L1 error, take the time you need".
    let by_accuracy = engine.query(777, &StoppingCondition::l1_error(0.01));
    println!(
        "accuracy target 0.01 -> {} iterations, φ = {:.4}, {:.2?}",
        by_accuracy.iterations, by_accuracy.l1_error, by_accuracy.elapsed
    );

    // Time-budget mode: "give me the best answer you can in 200µs".
    let by_time = engine.query(
        777,
        &StoppingCondition::time_limit(Duration::from_micros(200)),
    );
    println!(
        "time budget 200µs  -> {} iterations, φ = {:.4}, {:.2?}",
        by_time.iterations, by_time.l1_error, by_time.elapsed
    );
}
