//! Offline + online evaluation of FastPPV and the two baselines.
//!
//! Each `eval_*` function runs the method's offline phase (timed), answers
//! every test query (timed), and scores the results against exact ground
//! truth with the paper's four metrics at top-10 — producing one table row
//! of Fig. 6/7.

use std::time::{Duration, Instant};

use fastppv_baselines::hubrank::{
    build_hubrank_index, hubrank_query, select_hubs_by_benefit, HubRankOptions,
};
use fastppv_baselines::montecarlo::{build_fingerprint_index, montecarlo_query, MonteCarloOptions};
use fastppv_core::hubs::{select_hubs_with_pagerank, HubPolicy, HubSet};
use fastppv_core::offline::{build_flat_index, OfflineStats};
use fastppv_core::query::{QueryEngine, StoppingCondition};
use fastppv_core::{Config, FlatIndex};
use fastppv_graph::{Graph, NodeId, ScoreScratch};
use fastppv_metrics::AccuracyReport;

/// The paper's accuracy cutoff for top-k metrics.
pub const TOP_K: usize = 10;

/// One method's row in a comparison table.
#[derive(Clone, Debug)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Mean of the four accuracy metrics over the queries.
    pub accuracy: AccuracyReport,
    /// Mean online time per query.
    pub online_per_query: Duration,
    /// Offline precomputation wall-clock time.
    pub offline_time: Duration,
    /// Offline index size in bytes.
    pub offline_bytes: usize,
}

/// A built FastPPV deployment: hubs, index, config, and build stats.
pub struct FastPpvSetup {
    /// The hub set.
    pub hubs: HubSet,
    /// The PPV index.
    pub index: FlatIndex,
    /// The configuration used to build (and to query).
    pub config: Config,
    /// Offline build statistics.
    pub stats: OfflineStats,
}

/// Builds a FastPPV deployment.
pub fn build_fastppv(
    graph: &Graph,
    hub_count: usize,
    config: Config,
    policy: HubPolicy,
    threads: usize,
    pagerank: Option<&[f64]>,
) -> FastPpvSetup {
    let hubs = select_hubs_with_pagerank(graph, policy, hub_count, 0, pagerank);
    let (index, stats) = build_flat_index(graph, &hubs, &config, threads);
    FastPpvSetup {
        hubs,
        index,
        config,
        stats,
    }
}

/// Evaluates a built FastPPV deployment on the queries.
pub fn eval_fastppv(
    graph: &Graph,
    setup: &FastPpvSetup,
    queries: &[NodeId],
    truth: &[Vec<f64>],
    stop: &StoppingCondition,
) -> MethodRow {
    let engine = QueryEngine::new(graph, &setup.hubs, &setup.index, setup.config);
    let mut ws = engine.workspace();
    let mut reports = Vec::with_capacity(queries.len());
    let mut total = Duration::ZERO;
    for (i, &q) in queries.iter().enumerate() {
        let started = Instant::now();
        let result = engine.query_with(&mut ws, q, stop);
        total += started.elapsed();
        reports.push(AccuracyReport::compute(&truth[i], &result.scores, TOP_K));
    }
    MethodRow {
        method: "FastPPV".to_string(),
        accuracy: AccuracyReport::mean(&reports),
        online_per_query: total / queries.len().max(1) as u32,
        offline_time: setup.stats.build_time,
        offline_bytes: setup.stats.storage_bytes,
    }
}

/// Builds and evaluates HubRankP (paper baseline 1).
pub fn eval_hubrank(
    graph: &Graph,
    hub_count: usize,
    push: f64,
    opts: HubRankOptions,
    queries: &[NodeId],
    truth: &[Vec<f64>],
    pagerank: &[f64],
) -> MethodRow {
    let hubs = select_hubs_by_benefit(hub_count, pagerank);
    let index = build_hubrank_index(graph, &hubs, opts);
    let mut reports = Vec::with_capacity(queries.len());
    let mut total = Duration::ZERO;
    for (i, &q) in queries.iter().enumerate() {
        let started = Instant::now();
        let result = hubrank_query(graph, &index, q, push, opts.alpha);
        total += started.elapsed();
        reports.push(AccuracyReport::compute(&truth[i], &result.estimate, TOP_K));
    }
    MethodRow {
        method: "HubRankP".to_string(),
        accuracy: AccuracyReport::mean(&reports),
        online_per_query: total / queries.len().max(1) as u32,
        offline_time: index.build_time(),
        offline_bytes: index.storage_bytes(),
    }
}

/// Builds and evaluates the Monte Carlo fingerprint baseline (baseline 2).
pub fn eval_montecarlo(
    graph: &Graph,
    hub_count: usize,
    samples_per_query: usize,
    opts: MonteCarloOptions,
    queries: &[NodeId],
    truth: &[Vec<f64>],
    pagerank: &[f64],
) -> MethodRow {
    let hubs = select_hubs_by_benefit(hub_count, pagerank);
    let index = build_fingerprint_index(graph, &hubs, opts);
    let mut scratch = ScoreScratch::new(graph.num_nodes());
    let mut reports = Vec::with_capacity(queries.len());
    let mut total = Duration::ZERO;
    for (i, &q) in queries.iter().enumerate() {
        let started = Instant::now();
        let result = montecarlo_query(
            graph,
            Some(&index),
            q,
            samples_per_query,
            opts,
            &mut scratch,
        );
        total += started.elapsed();
        reports.push(AccuracyReport::compute(&truth[i], &result.estimate, TOP_K));
    }
    MethodRow {
        method: "MonteCarlo".to_string(),
        accuracy: AccuracyReport::mean(&reports),
        online_per_query: total / queries.len().max(1) as u32,
        offline_time: index.build_time(),
        offline_bytes: index.storage_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ground_truth, sample_queries};
    use fastppv_graph::gen::barabasi_albert;
    use fastppv_graph::{pagerank, PageRankOptions};

    #[test]
    fn all_three_methods_produce_sane_rows() {
        let g = barabasi_albert(400, 3, 33);
        let pr = pagerank(&g, PageRankOptions::default());
        let queries = sample_queries(&g, 5, 1);
        let truth = ground_truth(&g, &queries);

        let setup = build_fastppv(
            &g,
            40,
            Config::default(),
            HubPolicy::ExpectedUtility,
            2,
            Some(&pr),
        );
        let f = eval_fastppv(
            &g,
            &setup,
            &queries,
            &truth,
            &StoppingCondition::iterations(2),
        );
        let h = eval_hubrank(
            &g,
            40,
            0.01,
            HubRankOptions::default(),
            &queries,
            &truth,
            &pr,
        );
        let m = eval_montecarlo(
            &g,
            40,
            20_000,
            MonteCarloOptions::default(),
            &queries,
            &truth,
            &pr,
        );
        for row in [&f, &h, &m] {
            assert!(row.accuracy.precision > 0.5, "{row:?}");
            assert!(row.accuracy.rag > 0.8, "{row:?}");
            assert!(row.offline_bytes > 0);
            assert!(row.online_per_query > Duration::ZERO);
        }
        assert_eq!(f.method, "FastPPV");
        assert_eq!(h.method, "HubRankP");
        assert_eq!(m.method, "MonteCarlo");
    }
}
