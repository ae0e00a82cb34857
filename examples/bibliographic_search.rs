//! Scenario 1 from the paper's introduction: bibliographic search.
//!
//! "Consider a bibliographic network with interconnected nodes such as
//! papers, venues and authors. Given a paper, who are the best matching
//! experts to review it?" — the query is a paper node; the output ranks
//! author nodes.
//!
//! ```text
//! cargo run --release --example bibliographic_search
//! ```

use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::{BibNetwork, DblpParams, NodeKind};

fn main() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 20_000,
            venues: 120,
            ..Default::default()
        },
        7,
    );
    let graph = &net.graph;
    println!(
        "bibliographic network: {} papers, {} authors, {} venues ({} edges)",
        net.count(NodeKind::Paper),
        net.count(NodeKind::Author),
        net.count(NodeKind::Venue),
        graph.num_edges()
    );

    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 25, 0);
    let (index, stats) = build_flat_index(graph, &hubs, &config, 4);
    println!("indexed {} hubs in {:.2?}\n", stats.hubs, stats.build_time);

    // Query: a paper. We want the most relevant *authors* (reviewers), so
    // rank the PPV restricted to author nodes, excluding the paper's own
    // authors (they cannot review their own paper).
    let paper = net.nodes_of_kind(NodeKind::Paper).nth(1234).unwrap();
    let own_authors: Vec<_> = graph
        .out_neighbors(paper)
        .iter()
        .copied()
        .filter(|&v| net.kinds[v as usize] == NodeKind::Author)
        .collect();
    println!(
        "query paper {paper} (year {}, {} authors)",
        net.years[paper as usize],
        own_authors.len()
    );

    let engine = QueryEngine::new(graph, &hubs, &index, config);
    let result = engine.query(paper, &StoppingCondition::iterations(2));
    let reviewers: Vec<_> = result
        .scores
        .entries()
        .iter()
        .filter(|&&(v, _)| net.kinds[v as usize] == NodeKind::Author && !own_authors.contains(&v))
        .collect();
    let mut ranked = reviewers.clone();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "\nbest-matching reviewers ({} candidate authors scored, φ ≤ {:.4}, {:.2?}):",
        reviewers.len(),
        result.l1_error,
        result.elapsed
    );
    for (rank, &&(author, score)) in ranked.iter().take(10).enumerate() {
        let papers = graph.out_degree(author);
        println!(
            "  {:>2}. author {author:<6} relevance {score:.5} ({papers} papers)",
            rank + 1
        );
    }
}
