//! Figure 16: disk-based online query processing.
//!
//! The graph is segmented into clusters (anchor-based PPR clustering,
//! §5.3); at query time only one cluster is memory-resident and the prime-
//! subgraph search swaps clusters on demand, capped at one fault per
//! cluster. The PPV index is also read from disk: the arena file, mapped
//! rather than loaded (`FlatIndex::open`).
//!
//! Paper findings: query time stays roughly stable as the cluster count
//! grows (more faults × smaller clusters), while the memory need (largest
//! cluster / graph size) falls from ~15–20% at 10 clusters to ~3–5% at 50.
//!
//! ```text
//! cargo run --release -p fastppv-bench --bin exp_disk [--scale F]
//! ```

use std::time::Duration;

use fastppv_bench::cli::CommonArgs;
use fastppv_bench::datasets::{self, DatasetKind};
use fastppv_bench::table::{fmt_ms, Table};
use fastppv_bench::workload::sample_queries;
use fastppv_cluster::partition::{cluster_graph, ClusteringOptions};
use fastppv_cluster::query::{disk_query, DiskQueryWorkspace};
use fastppv_cluster::store::{write_clustered_graph, DiskGraph};
use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy};
use fastppv_core::offline::build_flat_index;
use fastppv_core::query::StoppingCondition;
use fastppv_core::{Config, FlatIndex};
use fastppv_graph::{pagerank, PageRankOptions};

fn main() {
    let args = CommonArgs::parse(30);
    println!("# Fig. 16: disk-based online query processing");
    let tmp = std::env::temp_dir();
    let mut fig16 = Table::new(vec![
        "dataset",
        "#clusters",
        "faults/query",
        "time/query",
        "memory need",
    ]);
    for kind in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
        let dataset = match kind {
            DatasetKind::Dblp => datasets::dblp(args.scale, args.seed),
            DatasetKind::LiveJournal => datasets::livejournal(args.scale, args.seed),
        };
        let graph = &dataset.graph;
        println!(
            "\n## {}: {} nodes, {} edges",
            dataset.name,
            graph.num_nodes(),
            graph.num_edges()
        );
        let pr = pagerank(graph, PageRankOptions::default());
        let hubs = select_hubs_with_pagerank(
            graph,
            HubPolicy::ExpectedUtility,
            datasets::default_hub_count(&dataset),
            0,
            Some(&pr),
        );
        let config = Config::default().with_epsilon(1e-6);
        let (index, _) = build_flat_index(graph, &hubs, &config, args.threads);
        // The PPV index lives on disk too (paged in by the kernel).
        let idx_path = tmp.join(format!(
            "fastppv-exp-disk-{}-{}.idx",
            std::process::id(),
            dataset.name
        ));
        index.write_to_file(&idx_path).expect("write index");
        let disk_index = FlatIndex::open(&idx_path).expect("open index");
        let queries = sample_queries(graph, args.queries, args.seed);

        for n_clusters in [10usize, 15, 25, 35, 50] {
            let clustering = cluster_graph(graph, n_clusters, ClusteringOptions::default());
            let clg_path = tmp.join(format!(
                "fastppv-exp-disk-{}-{}-{n_clusters}.clg",
                std::process::id(),
                dataset.name
            ));
            write_clustered_graph(graph, &clustering, &clg_path).expect("write clustered graph");
            // One resident cluster: the paper's reduced memory budget.
            let mut disk = DiskGraph::open(&clg_path, 1).expect("open clustered graph");
            let mut ws = DiskQueryWorkspace::new(graph.num_nodes());
            let mut faults = 0u64;
            let mut elapsed = Duration::ZERO;
            for &q in &queries {
                let res = disk_query(
                    &mut disk,
                    &hubs,
                    &disk_index,
                    &config,
                    q,
                    &StoppingCondition::iterations(2),
                    Some(n_clusters as u64), // fault cap = #clusters (§5.3)
                    &mut ws,
                );
                faults += res.faults;
                elapsed += res.elapsed;
            }
            let nq = queries.len() as u64;
            fig16.row(vec![
                dataset.name.to_string(),
                n_clusters.to_string(),
                format!("{:.1}", faults as f64 / nq as f64),
                fmt_ms(elapsed / nq as u32),
                format!(
                    "{:.1}%",
                    100.0 * disk.largest_cluster_bytes() as f64 / disk.total_cluster_bytes() as f64
                ),
            ]);
            std::fs::remove_file(&clg_path).ok();
        }
        std::fs::remove_file(&idx_path).ok();
    }
    fig16.print(
        "Fig. 16 — disk-based processing (paper: stable time, \
         falling memory need as #clusters grows)",
    );
}
