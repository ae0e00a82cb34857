//! Disk-based online query processing (paper §5.3 / Fig. 16).
//!
//! Identical to the in-memory Algorithm 2 except that the prime-subgraph
//! search runs against a [`DiskGraph`]: expanding into a non-resident
//! cluster faults it in, and the search terminates prematurely once the
//! fault cap is hit ("minimal loss in accuracy", §5.3 — the refused nodes
//! are treated like sub-`ε` frontier). The increment loop then proceeds on
//! the PPV index exactly as in memory.

use std::time::Instant;

use fastppv_core::config::Config;
use fastppv_core::hubs::HubSet;
use fastppv_core::index::PpvStore;
use fastppv_core::prime::PrimeComputer;
use fastppv_core::query::{run_increments, IncrementScratch, QueryResult, StoppingCondition};
use fastppv_graph::NodeId;

use crate::store::DiskGraph;

/// A disk-based query outcome: the usual [`QueryResult`] plus disk metrics.
#[derive(Clone, Debug)]
pub struct DiskQueryResult {
    /// The PPV estimate and iteration diagnostics.
    pub result: QueryResult,
    /// Cluster faults incurred by this query.
    pub faults: u64,
    /// Whether the prime-subgraph search was cut short by the fault cap.
    pub truncated: bool,
    /// Wall-clock time including cluster I/O.
    pub elapsed: std::time::Duration,
}

/// Answers a query against a disk-resident graph.
///
/// `fault_cap` bounds cluster swaps per query (the paper uses the number of
/// clusters). The query's own prime PPV is loaded from the store when `q`
/// is a hub — no graph access at all in that case.
#[allow(clippy::too_many_arguments)]
pub fn disk_query<S: PpvStore>(
    disk: &mut DiskGraph,
    hubs: &HubSet,
    store: &S,
    config: &Config,
    q: NodeId,
    stop: &StoppingCondition,
    fault_cap: Option<u64>,
    workspace: &mut DiskQueryWorkspace,
) -> DiskQueryResult {
    assert!(
        (q as usize) < disk.num_nodes_total(),
        "query node {q} out of range"
    );
    let started = Instant::now();
    disk.reset_faults();
    disk.set_fault_cap(fault_cap);
    let prime0 = match store.load(q) {
        Some(stored) => stored,
        None => workspace.prime.prime_ppv_from(disk, hubs, q, config).0,
    };
    let result = run_increments(
        q,
        &prime0,
        hubs,
        store,
        config,
        stop,
        &mut workspace.inc,
        started,
    );
    DiskQueryResult {
        result,
        faults: disk.faults(),
        truncated: disk.truncated(),
        elapsed: started.elapsed(),
    }
}

/// Reusable scratch for [`disk_query`].
pub struct DiskQueryWorkspace {
    prime: PrimeComputer,
    inc: IncrementScratch,
}

impl DiskQueryWorkspace {
    /// A workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        DiskQueryWorkspace {
            prime: PrimeComputer::new(n),
            inc: IncrementScratch::new(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{cluster_graph, ClusteringOptions};
    use crate::store::write_clustered_graph;
    use fastppv_core::hubs::{select_hubs, HubPolicy};
    use fastppv_core::offline::build_index;
    use fastppv_core::query::QueryEngine;
    use fastppv_graph::gen::barabasi_albert;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fastppv-dq-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn matches_in_memory_engine_without_cap() {
        let g = barabasi_albert(400, 3, 17);
        let config = Config::default().with_clip(0.0);
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 30, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let clustering = cluster_graph(&g, 6, ClusteringOptions::default());
        let path = temp_path("match.clg");
        write_clustered_graph(&g, &clustering, &path).unwrap();
        let mut disk = DiskGraph::open(&path, 1).unwrap();
        let mut ws = DiskQueryWorkspace::new(400);
        let stop = StoppingCondition::iterations(2);
        let engine = QueryEngine::new(&g, &hubs, &index, config);
        let queries: Vec<u32> = (0..400).filter(|&v| !hubs.is_hub(v)).take(3).collect();
        for (i, &q) in queries.iter().enumerate() {
            let mem = engine.query(q, &stop);
            let dsk = disk_query(&mut disk, &hubs, &index, &config, q, &stop, None, &mut ws);
            assert_eq!(
                mem.scores, dsk.result.scores,
                "query {q} must match the in-memory engine"
            );
            assert!(!dsk.truncated);
            if i == 0 {
                // Cold start must fault; later queries may find their
                // clusters already resident.
                assert!(dsk.faults >= 1);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_cap_trades_accuracy_for_io() {
        let g = barabasi_albert(600, 3, 23);
        let config = Config::default().with_clip(0.0);
        // Few hubs -> big prime subgraphs -> many clusters touched.
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 5, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let clustering = cluster_graph(&g, 20, ClusteringOptions::default());
        let path = temp_path("cap.clg");
        write_clustered_graph(&g, &clustering, &path).unwrap();
        let mut disk = DiskGraph::open(&path, 1).unwrap();
        let mut ws = DiskQueryWorkspace::new(600);
        let stop = StoppingCondition::iterations(1);
        let q = (0..600u32).find(|&v| !hubs.is_hub(v)).unwrap();
        let free = disk_query(&mut disk, &hubs, &index, &config, q, &stop, None, &mut ws);
        let capped = disk_query(
            &mut disk,
            &hubs,
            &index,
            &config,
            q,
            &stop,
            Some(3),
            &mut ws,
        );
        assert!(capped.faults <= 3);
        assert!(capped.faults < free.faults);
        // Accuracy-awareness survives truncation: φ still upper-bounds.
        assert!(capped.result.l1_error >= free.result.l1_error - 1e-12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hub_query_needs_no_graph_access() {
        let g = barabasi_albert(300, 3, 29);
        let config = Config::default();
        let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 20, 0);
        let (index, _) = build_index(&g, &hubs, &config);
        let clustering = cluster_graph(&g, 5, ClusteringOptions::default());
        let path = temp_path("hubq.clg");
        write_clustered_graph(&g, &clustering, &path).unwrap();
        let mut disk = DiskGraph::open(&path, 1).unwrap();
        let mut ws = DiskQueryWorkspace::new(300);
        let h = hubs.ids()[0];
        let res = disk_query(
            &mut disk,
            &hubs,
            &index,
            &config,
            h,
            &StoppingCondition::iterations(1),
            Some(0),
            &mut ws,
        );
        assert_eq!(res.faults, 0);
        assert!(!res.result.scores.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
