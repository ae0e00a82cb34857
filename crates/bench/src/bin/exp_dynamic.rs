//! Extension experiment: dynamic graphs (the paper's future-work §7).
//!
//! "A simple idea to process graph updates is to only re-compute the
//! affected prime PPVs, without touching the unaffected ones." This
//! experiment inserts batches of random edges into the LiveJournal-like
//! graph and compares the incremental refresh (`fastppv_core::dynamic`)
//! against a full index rebuild: affected-hub fraction, wall-clock speedup,
//! and equality of the resulting indexes.
//!
//! ```text
//! cargo run --release -p fastppv-bench --bin exp_dynamic [--scale F]
//! ```

use fastppv_bench::cli::CommonArgs;
use fastppv_bench::datasets;
use fastppv_bench::table::{fmt_ratio, fmt_s, Table};
use fastppv_core::dynamic::{refresh_flat_index_snapshot_delta, DeltaConfig};
use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy};
use fastppv_core::offline::build_flat_index;
use fastppv_core::{Config, PpvStore};
use fastppv_graph::{pagerank, Graph, GraphBuilder, NodeId, PageRankOptions};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args = CommonArgs::parse(30);
    println!("# Dynamic updates: incremental refresh vs full rebuild");
    let dataset = datasets::livejournal(args.scale, args.seed);
    let graph = dataset.graph;
    println!("{} nodes, {} edges", graph.num_nodes(), graph.num_edges());
    let pr = pagerank(&graph, PageRankOptions::default());
    let hubs = select_hubs_with_pagerank(
        &graph,
        HubPolicy::ExpectedUtility,
        datasets::default_hub_count(&fastppv_bench::datasets::Dataset {
            name: "lj",
            graph: graph.clone(),
            kind: fastppv_bench::datasets::DatasetKind::LiveJournal,
            bib: None,
            social: None,
        }),
        0,
        Some(&pr),
    );
    let config = Config::default().with_epsilon(1e-6);
    let (index, build_stats) = build_flat_index(&graph, &hubs, &config, args.threads);
    println!(
        "|H| = {}, initial build {:.2}s",
        hubs.len(),
        build_stats.build_time.as_secs_f64()
    );

    let mut table = Table::new(vec![
        "batch size",
        "affected hubs",
        "refresh time",
        "rebuild time",
        "speedup",
        "identical",
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let exact = DeltaConfig::exact();
    for batch in [1usize, 4, 16, 64] {
        // Insert `batch` random edges (from non-hub tails, the common case).
        let n = graph.num_nodes() as NodeId;
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(batch);
        while edges.len() < batch {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !graph.has_edge(u, v) {
                edges.push((u, v));
            }
        }
        let new_graph = insert_edges(&graph, &edges);
        let tails: Vec<NodeId> = edges.iter().map(|&(u, _)| u).collect();

        let t = std::time::Instant::now();
        let (refreshed, stats) = refresh_flat_index_snapshot_delta(
            &index, &graph, &new_graph, &hubs, &tails, &config, &exact,
        );
        let refresh_time = t.elapsed();

        let t = std::time::Instant::now();
        let (rebuilt, _) = build_flat_index(&new_graph, &hubs, &config, 1);
        let rebuild_time = t.elapsed();

        let identical = hubs
            .ids()
            .iter()
            .all(|&h| refreshed.load(h) == rebuilt.load(h));
        table.row(vec![
            batch.to_string(),
            format!(
                "{} / {} ({:.1}%)",
                stats.recomputed,
                hubs.len(),
                100.0 * stats.recomputed as f64 / hubs.len() as f64
            ),
            fmt_s(refresh_time),
            fmt_s(rebuild_time),
            fmt_ratio(rebuild_time.as_secs_f64(), refresh_time.as_secs_f64()),
            identical.to_string(),
        ]);
    }
    table.print(
        "Dynamic updates — refresh touches only upstream hubs and matches \
         a full rebuild exactly",
    );
}

/// Returns `graph` plus the given edges (dropping dangling-fix self-loops
/// on tails that gain a real edge).
fn insert_edges(graph: &Graph, new_edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new(graph.num_nodes())
        .with_edge_capacity(graph.num_edges() + new_edges.len());
    let gains: std::collections::HashSet<NodeId> = new_edges.iter().map(|&(u, _)| u).collect();
    for (u, v) in graph.edges() {
        if u == v && gains.contains(&u) {
            continue;
        }
        b.add_edge(u, v);
    }
    for &(u, v) in new_edges {
        b.add_edge(u, v);
    }
    b.build()
}
