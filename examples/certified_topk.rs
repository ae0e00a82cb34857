//! Certified top-k: iterate only as far as needed to *prove* the top-k set
//! is exact.
//!
//! FastPPV's estimates are entry-wise lower bounds whose total missing mass
//! φ is known (Eq. 6), so the true score of any node lies within `[r̂(p),
//! r̂(p) + φ]` — once the k-th estimate leads the (k+1)-th by more than φ,
//! no other node can belong to the top-k. This turns the paper's
//! accuracy-awareness into rank certification (in the spirit of the top-K
//! PPR literature it cites).
//!
//! ```text
//! cargo run --release --example certified_topk
//! ```

use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, QueryEngine};
use fastppv::graph::gen::{BibNetwork, DblpParams};

fn main() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 15_000,
            ..Default::default()
        },
        21,
    );
    let graph = &net.graph;
    // δ = 0 / clip = 0 so φ keeps shrinking until certification triggers.
    let config = Config::default()
        .with_epsilon(1e-7)
        .with_delta(0.0)
        .with_clip(0.0);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 25, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 4);
    let engine = QueryEngine::new(graph, &hubs, &index, config);

    for (k, q) in [(3usize, 900u32), (5, 4321), (10, 17_000)] {
        let started = std::time::Instant::now();
        let res = engine.query_top_k(q, k, 25);
        println!(
            "query {q:>6}, k={k:<2}: {} after {} iterations \
             (φ = {:.2e}, {:.2?})",
            if res.certified {
                "CERTIFIED exact set"
            } else {
                "best effort"
            },
            res.iterations,
            res.l1_error,
            started.elapsed()
        );
        for (rank, (node, score)) in res.nodes.iter().enumerate() {
            println!("    {:>2}. node {node:<7} score ≥ {score:.5}", rank + 1);
        }
    }
}
