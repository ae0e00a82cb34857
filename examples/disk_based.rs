//! Disk-based processing (paper §5.3): query a graph that does not fit in
//! memory, with a one-cluster residency budget and fault counting, over a
//! PPV index that is mapped from its file rather than loaded.
//!
//! ```text
//! cargo run --release --example disk_based
//! ```

use fastppv::cluster::partition::{cluster_graph, ClusteringOptions};
use fastppv::cluster::query::{disk_query, DiskQueryWorkspace};
use fastppv::cluster::store::{write_clustered_graph, DiskGraph};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, FlatIndex, HubPolicy};
use fastppv::graph::gen::{SocialNetwork, SocialParams};

fn main() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 20_000,
            ..Default::default()
        },
        9,
    );
    let graph = &net.graph;
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 10, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 4);

    // Offline: segment the graph into clusters and put graph + PPV index on
    // disk.
    let dir = std::env::temp_dir();
    let clg = dir.join("fastppv-example.clg");
    let idx = dir.join("fastppv-example.idx");
    let n_clusters = 25;
    let clustering = cluster_graph(graph, n_clusters, ClusteringOptions::default());
    write_clustered_graph(graph, &clustering, &clg).expect("write clusters");
    index.write_to_file(&idx).expect("write index");

    // Online: one resident cluster, the PPV index mmap'ed from its file
    // (the kernel pages in the hubs a query touches), fault cap = number
    // of clusters (the paper's setting).
    let mut disk = DiskGraph::open(&clg, 1).expect("open clustered graph");
    let disk_index = FlatIndex::open(&idx).expect("open index");
    println!(
        "disk-resident graph: {} clusters, minimum working set {:.1}% of \
         the graph; index {:.1} MB mapped, {:.1} MB on the heap",
        disk.num_clusters(),
        100.0 * disk.largest_cluster_bytes() as f64 / disk.total_cluster_bytes() as f64,
        disk_index.mapped_bytes() as f64 / (1024.0 * 1024.0),
        disk_index.resident_bytes() as f64 / (1024.0 * 1024.0)
    );
    let mut ws = DiskQueryWorkspace::new(graph.num_nodes());
    for q in [15u32, 7777, 19_000] {
        let res = disk_query(
            &mut disk,
            &hubs,
            &disk_index,
            &config,
            q,
            &StoppingCondition::iterations(2),
            Some(n_clusters as u64),
            &mut ws,
        );
        let top = res.result.top_k(3);
        println!(
            "query {q:>6}: {} cluster faults, {:.2?}, φ ≤ {:.4}, top-3 {:?}",
            res.faults,
            res.elapsed,
            res.result.l1_error,
            top.iter().map(|&(v, _)| v).collect::<Vec<_>>()
        );
    }
    std::fs::remove_file(&clg).ok();
    std::fs::remove_file(&idx).ok();
}
