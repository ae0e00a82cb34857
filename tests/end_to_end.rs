//! End-to-end integration: offline precomputation → online queries →
//! accuracy against exact ground truth, across both generated datasets and
//! a built as well as a file-opened arena.

use fastppv::baselines::exact::{exact_ppv, ExactOptions};
use fastppv::core::index::{FlatIndex, PpvStore};
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy};
use fastppv::graph::gen::{BibNetwork, DblpParams, SocialNetwork, SocialParams};
use fastppv::graph::Graph;
use fastppv::metrics::AccuracyReport;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastppv-e2e-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    p
}

fn check_dataset(graph: &Graph, hub_count: usize, queries: &[u32]) {
    // Small test graphs spread hub mass thinly; scale δ down accordingly
    // (the paper's δ = 0.005 targets million-node graphs).
    let config = Config::default().with_epsilon(1e-6).with_delta(1e-4);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, hub_count, 0);
    let (index, stats) = build_flat_index(graph, &hubs, &config, 4);
    assert_eq!(stats.hubs, hubs.len());
    let engine = QueryEngine::new(graph, &hubs, &index, config);
    let mut reports = Vec::new();
    for &q in queries {
        let exact = exact_ppv(graph, q, ExactOptions::default());
        let result = engine.query(q, &StoppingCondition::iterations(3));
        // The reported φ upper-bounds the true full-vector gap.
        let true_gap = result.scores.l1_distance_dense(&exact);
        assert!(
            result.l1_error >= true_gap - 1e-6,
            "q {q}: φ {} < true gap {true_gap}",
            result.l1_error
        );
        reports.push(AccuracyReport::compute(&exact, &result.scores, 10));
    }
    let mean = AccuracyReport::mean(&reports);
    // Sanity thresholds for tiny test graphs (top-10 is dominated by
    // near-ties at this scale); paper-level accuracy is measured by the
    // bench harness at real scale.
    assert!(mean.precision > 0.55, "precision {mean:?}");
    assert!(mean.rag > 0.93, "rag {mean:?}");
    assert!(mean.l1_similarity > 0.9, "l1 {mean:?}");
}

#[test]
fn dblp_like_end_to_end() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 3_000,
            venues: 30,
            ..Default::default()
        },
        1,
    );
    let n = net.graph.num_nodes();
    check_dataset(
        &net.graph,
        n / 25,
        &[5, 500, 2222, 4000u32.min(n as u32 - 1)],
    );
}

#[test]
fn social_like_end_to_end() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 4_000,
            ..Default::default()
        },
        2,
    );
    check_dataset(&net.graph, 500, &[1, 123, 3999]);
}

#[test]
fn disk_index_serves_identical_results() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 2_000,
            ..Default::default()
        },
        3,
    );
    let graph = &net.graph;
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, 200, 0);
    let (mem_index, _) = build_flat_index(graph, &hubs, &config, 2);
    let path = temp_path("index.fppv");
    mem_index.write_to_file(&path).unwrap();
    let disk_index = FlatIndex::open(&path).unwrap();
    assert_eq!(disk_index.hub_count(), mem_index.hub_count());
    assert_eq!(disk_index.total_entries(), mem_index.total_entries());

    let stop = StoppingCondition::iterations(2);
    let mem_engine = QueryEngine::new(graph, &hubs, &mem_index, config);
    let disk_engine = QueryEngine::new(graph, &hubs, &disk_index, config);
    for q in [0u32, 77, 1500, 1999] {
        let a = mem_engine.query(q, &stop);
        let b = disk_engine.query(q, &stop);
        assert_eq!(a.iterations, b.iterations, "q {q}");
        // The file stores the arena's own f64 scores.
        assert!(
            (a.l1_error - b.l1_error).abs() < 1e-12,
            "q {q}: {} vs {}",
            a.l1_error,
            b.l1_error
        );
        for (&(va, sa), &(vb, sb)) in a.scores.entries().iter().zip(b.scores.entries()) {
            assert_eq!(va, vb);
            assert!((sa - sb).abs() < 1e-12);
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn hub_queries_and_non_hub_queries_both_work() {
    let net = SocialNetwork::generate(
        SocialParams {
            nodes: 1_500,
            ..Default::default()
        },
        4,
    );
    let graph = &net.graph;
    let config = Config::default().with_epsilon(1e-7).with_delta(1e-4);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, 150, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 2);
    let engine = QueryEngine::new(graph, &hubs, &index, config);
    let hub_q = hubs.ids()[0];
    let non_hub_q = (0..1500u32).find(|&v| !hubs.is_hub(v)).unwrap();
    for q in [hub_q, non_hub_q] {
        let exact = exact_ppv(graph, q, ExactOptions::default());
        let r = engine.query(q, &StoppingCondition::iterations(4));
        let report = AccuracyReport::compute(&exact, &r.scores, 10);
        assert!(report.precision >= 0.4, "q {q}: {report:?}");
        assert!(report.rag >= 0.85, "q {q}: {report:?}");
    }
}

#[test]
fn multi_seed_determinism() {
    // The whole pipeline is deterministic for a fixed seed.
    let make = || {
        let net = SocialNetwork::generate(
            SocialParams {
                nodes: 1_000,
                ..Default::default()
            },
            5,
        );
        let config = Config::default();
        let hubs = select_hubs(&net.graph, HubPolicy::ExpectedUtility, 100, 0);
        let (index, _) = build_flat_index(&net.graph, &hubs, &config, 3);
        let engine = QueryEngine::new(&net.graph, &hubs, &index, config);
        engine.query(42, &StoppingCondition::iterations(2)).scores
    };
    assert_eq!(make(), make());
}
