//! Top-`k` answers are the top `k` of the whole answer, bit for bit, at
//! every layer that finishes one from its dense scratch instead of
//! materializing the whole vector:
//!
//! * the engine (`QueryEngine::query_with_cancel` with `top_k = k`) against
//!   `query_with(..).scores.top_k(k)`, for hub and non-hub sources, at the
//!   default configuration and at δ = 0, for k = 1, 10 and more than the
//!   answer holds;
//! * the service over TCP: a `top_k = 10` miss and the hit after it return
//!   identical entries, and the whole answer (`top_k = 0`) is keyed apart —
//!   a miss after them, equal to `QueryService::query`'s vector;
//! * the router over in-process shards: the merged top 10 is the top 10
//!   of the merged whole answer bit for bit, names the single-process top
//!   10 (to the oracle's 1e-12), and a hit repeats it.

use std::net::TcpListener;
use std::sync::Arc;

use fastppv::cluster::{slice_store, ShardMap};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{build_flat_index, select_hubs, Config, FlatIndex, HubPolicy, HubSet};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::vec::{top_k_of, ScoreScratch};
use fastppv::graph::{Graph, NodeId};
use fastppv::router::{merge_query, LocalBackend, Router, RouterConfig, RouterOptions};
use fastppv::server::net::{serve, Client, WireAnswer, WireRequest, WireResponse};
use fastppv::server::{QueryService, Request, ServiceOptions};

const NODES: usize = 2000;
const HUBS: usize = 80;

fn deployment(config: Config) -> (Arc<Graph>, Arc<HubSet>, FlatIndex) {
    let graph = barabasi_albert(NODES, 4, 42);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, HUBS, 0);
    let (index, _) = build_flat_index(&graph, &hubs, &config, 1);
    (Arc::new(graph), Arc::new(hubs), index)
}

/// Two hub and two non-hub sources.
fn sources(hubs: &HubSet) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = hubs.ids().iter().copied().take(2).collect();
    out.extend((0..NODES as NodeId).filter(|&v| !hubs.is_hub(v)).take(2));
    out
}

fn bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    entries.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

fn answer(response: WireResponse) -> WireAnswer {
    match response {
        WireResponse::Answer(a) => a,
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn engine_top_k_finish_is_the_top_k_of_the_whole_answer() {
    for config in [Config::default(), Config::default().with_delta(0.0)] {
        let (graph, hubs, index) = deployment(config);
        let engine = fastppv::core::QueryEngine::new(&graph, &hubs, &index, config);
        let mut ws = engine.workspace();
        for q in sources(&hubs) {
            for stop in [
                StoppingCondition::iterations(2),
                StoppingCondition::l1_error(0.05),
            ] {
                let whole = engine.query_with(&mut ws, q, &stop);
                for k in [1, 10, whole.scores.len() + 1] {
                    let what = format!("δ {} q {q} {stop:?} k {k}", config.delta);
                    let top = engine.query_with_cancel(&mut ws, q, &stop, k, None);
                    let mut want = whole.scores.top_k(k);
                    assert_eq!(bits(&top.top_k(k)), bits(&want), "{what}: rank order");
                    want.sort_unstable_by_key(|&(v, _)| v);
                    assert_eq!(bits(top.scores.entries()), bits(&want), "{what}: id order");
                    assert_eq!(top.l1_error.to_bits(), whole.l1_error.to_bits(), "{what}");
                    assert_eq!(top.iterations, whole.iterations, "{what}");
                    assert_eq!(top.exhausted, whole.exhausted, "{what}");
                }
            }
        }
    }
}

#[test]
fn service_keys_answers_by_the_entries_asked_for() {
    let config = Config::default();
    let (graph, hubs, index) = deployment(config);
    let q = sources(&hubs)[2];
    let service = Arc::new(QueryService::new(
        graph,
        Arc::clone(&hubs),
        Arc::new(index),
        config,
        ServiceOptions {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 64,
        },
    ));
    let server = serve(
        Arc::clone(&service),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let top10 = WireRequest::iterations(q, 2).with_top_k(10);
    let miss = answer(client.request_one(top10).unwrap());
    let hit = answer(client.request_one(top10).unwrap());
    assert!(!miss.cached && hit.cached);
    assert_eq!(miss.entries.len(), 10);
    assert_eq!(bits(&hit.entries), bits(&miss.entries));
    assert_eq!(hit.l1_error.to_bits(), miss.l1_error.to_bits());
    assert_eq!(hit.iterations, miss.iterations);

    // The whole answer is another key: a miss, cached in turn, and the
    // in-process query finds it.
    let whole = answer(client.request_one(WireRequest::iterations(q, 2)).unwrap());
    assert!(
        !whole.cached,
        "a top-10 entry answered a whole-vector request"
    );
    let local = service.query(Request::iterations(q, 2));
    assert!(local.cached);
    assert_eq!(bits(&whole.entries), bits(local.scores.entries()));
    assert_eq!(bits(&miss.entries), bits(&local.top_k(10)));
    server.shutdown();
}

#[test]
fn router_top_k_is_the_top_k_of_the_merged_answer() {
    let config = Config::default();
    let (graph, hubs, index) = deployment(config);
    let map = ShardMap::round_robin(NODES, 2);
    let services = (0..2)
        .map(|s| {
            Arc::new(QueryService::new(
                Arc::clone(&graph),
                Arc::clone(&hubs),
                Arc::new(slice_store(&index, &hubs, &map, s)),
                config,
                ServiceOptions::default(),
            ))
        })
        .collect();
    let cfg = RouterConfig {
        alpha: config.alpha,
        delta: config.delta,
        num_nodes: NODES,
    };
    let router = Router::new(
        LocalBackend::new(services),
        map.clone(),
        cfg,
        RouterOptions::default(),
    );
    let engine = fastppv::core::QueryEngine::new(&graph, &hubs, &index, config);
    let mut scratch = ScoreScratch::new(NODES);
    let stop = StoppingCondition::iterations(2);
    for q in sources(&hubs) {
        let top10 = WireRequest::iterations(q, 2).with_top_k(10);
        let miss = answer(router.serve_request(&top10));
        let hit = answer(router.serve_request(&top10));
        assert!(!miss.cached && hit.cached, "q {q}");
        assert_eq!(bits(&hit.entries), bits(&miss.entries), "q {q}");

        let merged = merge_query(router.backend(), &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
        let want = top_k_of(merged.scores.iter().copied(), 10);
        assert_eq!(bits(&miss.entries), bits(&want), "q {q}");
        let single = engine.query(q, &stop).top_k(10);
        assert_eq!(miss.entries.len(), single.len(), "q {q}");
        for (&(va, sa), &(vb, sb)) in miss.entries.iter().zip(&single) {
            assert_eq!(va, vb, "q {q}");
            assert!((sa - sb).abs() <= 1e-12, "q {q} node {va}: {sa} vs {sb}");
        }

        let whole = answer(router.serve_request(&WireRequest::iterations(q, 2)));
        assert!(
            !whole.cached,
            "q {q}: a top-10 entry answered a whole request"
        );
        assert_eq!(bits(&whole.entries), bits(&merged.scores), "q {q}");
    }
}
