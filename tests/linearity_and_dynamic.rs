//! Multi-node queries (Linearity Theorem) and dynamic index maintenance,
//! exercised end-to-end on generated graphs.

use fastppv::baselines::exact::{exact_ppv, ExactOptions};
use fastppv::core::dynamic::{refresh_flat_index_snapshot_delta, DeltaConfig};
use fastppv::core::linearity::query_multi;
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{build_flat_index, select_hubs, Config, HubPolicy, PpvStore};
use fastppv::graph::gen::{SocialNetwork, SocialParams};
use fastppv::graph::{Graph, GraphBuilder, NodeId};

fn dataset(seed: u64) -> Graph {
    SocialNetwork::generate(
        SocialParams {
            nodes: 1_200,
            ..Default::default()
        },
        seed,
    )
    .graph
}

#[test]
fn multi_node_query_matches_weighted_exact() {
    let g = dataset(1);
    let config = Config::default()
        .with_epsilon(1e-10)
        .with_delta(0.0)
        .with_clip(0.0);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 120, 0);
    let (index, _) = build_flat_index(&g, &hubs, &config, 2);
    let engine = QueryEngine::new(&g, &hubs, &index, config);
    let seeds = [(10u32, 1.0), (500, 2.0), (1100, 1.0)];
    let res = query_multi(&engine, &seeds, &StoppingCondition::l1_error(1e-7));
    let mut expected = vec![0.0; g.num_nodes()];
    for &(q, w) in &seeds {
        let e = exact_ppv(&g, q, ExactOptions::default());
        for (acc, x) in expected.iter_mut().zip(&e) {
            *acc += (w / 4.0) * x;
        }
    }
    for v in 0..g.num_nodes() as NodeId {
        assert!(
            (res.scores.get(v) - expected[v as usize]).abs() < 1e-5,
            "node {v}"
        );
    }
    assert!(res.l1_error < 1e-6);
}

#[test]
fn refresh_after_insertions_matches_rebuild_and_serves_queries() {
    let g = dataset(2);
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 120, 0);
    let (index, _) = build_flat_index(&g, &hubs, &config, 2);

    // Insert three edges from non-hub tails.
    let tails: Vec<NodeId> = (0..1200u32).filter(|&v| !hubs.is_hub(v)).take(3).collect();
    let new_edges: Vec<(NodeId, NodeId)> = tails.iter().map(|&u| (u, (u + 601) % 1200)).collect();
    let mut b = GraphBuilder::new(1200);
    for (u, v) in g.edges() {
        if u == v && tails.contains(&u) {
            continue; // drop dangling-fix self-loop when a real edge arrives
        }
        b.add_edge(u, v);
    }
    for &(u, v) in &new_edges {
        b.add_edge(u, v);
    }
    let g2 = b.build();

    let exact = DeltaConfig::exact();
    let (refreshed, stats) =
        refresh_flat_index_snapshot_delta(&index, &g, &g2, &hubs, &tails, &config, &exact);
    let (rebuilt, _) = build_flat_index(&g2, &hubs, &config, 2);
    assert!(stats.recomputed + stats.reused == hubs.len());
    for &h in hubs.ids() {
        assert_eq!(
            refreshed.load(h).unwrap().entries,
            rebuilt.load(h).unwrap().entries,
            "hub {h}"
        );
    }

    // Queries over the refreshed index match queries over the rebuilt one.
    let stop = StoppingCondition::iterations(2);
    let e1 = QueryEngine::new(&g2, &hubs, &refreshed, config);
    let e2 = QueryEngine::new(&g2, &hubs, &rebuilt, config);
    for &q in &[tails[0], 7, 900] {
        assert_eq!(e1.query(q, &stop).scores, e2.query(q, &stop).scores);
    }
}

#[test]
fn refresh_with_no_changes_reuses_everything() {
    let g = dataset(3);
    let config = Config::default();
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 60, 0);
    let (index, _) = build_flat_index(&g, &hubs, &config, 2);
    let (refreshed, stats) = refresh_flat_index_snapshot_delta(
        &index,
        &g,
        &g,
        &hubs,
        &[],
        &config,
        &DeltaConfig::exact(),
    );
    assert_eq!(stats.recomputed, 0);
    assert_eq!(stats.reused, hubs.len());
    for &h in hubs.ids() {
        assert_eq!(
            refreshed.load(h).unwrap().entries,
            index.load(h).unwrap().entries
        );
    }
}
