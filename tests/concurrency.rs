//! Concurrency test suite: the guarantees a shared, multi-threaded
//! deployment rests on.
//!
//! 1. one `&self` engine shared by N threads (via `Arc`) answers exactly
//!    like a fresh single-threaded engine;
//! 2. the worker-pooled `QueryService` preserves request order and
//!    single-threaded semantics under contention;
//! 3. parallel offline builds are byte-identical to serial ones;
//! 4. the hot-PPV cache serves results identical to misses, and a
//!    `dynamic` graph update invalidates it (no stale hits).
//!
//! CI runs this file twice — `RUST_TEST_THREADS=1` and default
//! parallelism — so scheduling-order flakiness surfaces there, not in
//! users' terminals.

use std::sync::Arc;

use fastppv::core::offline::{build_flat_index, build_index, build_index_in_order};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{
    select_hubs, Config, FlatIndex, HubPolicy, HubSet, PrimeComputer, QueryEngine,
};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::{Graph, GraphBuilder, NodeId, SparseVector};
use fastppv::server::{QueryService, Request, ServiceOptions};

/// L1 distance between two sparse vectors (union of supports).
fn l1_diff(a: &SparseVector, b: &SparseVector) -> f64 {
    let mut d: f64 = a.entries().iter().map(|&(v, s)| (s - b.get(v)).abs()).sum();
    for &(v, s) in b.entries() {
        if a.get(v) == 0.0 {
            d += s.abs();
        }
    }
    d
}

fn build_deployment(
    n: usize,
    hubs: usize,
    seed: u64,
    config: Config,
) -> (Graph, HubSet, FlatIndex) {
    let g = barabasi_albert(n, 3, seed);
    let h = select_hubs(&g, HubPolicy::ExpectedUtility, hubs, 0);
    let (index, _) = build_index(&g, &h, &config);
    (g, h, index)
}

#[test]
fn shared_engine_matches_single_threaded() {
    const THREADS: usize = 8;
    let config = Config::default();
    let (g, hubs, index) = build_deployment(800, 60, 17, config);
    let engine = Arc::new(QueryEngine::new(&g, &hubs, &index, config));
    let stop = StoppingCondition::iterations(3);

    // Every thread queries an interleaved slice of the node range through
    // the one shared engine, each with its own workspace.
    let concurrent: Vec<Vec<(NodeId, SparseVector)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut ws = engine.workspace();
                    (t as u32..800)
                        .step_by(THREADS * 7)
                        .map(|q| (q, engine.query_with(&mut ws, q, &stop).scores))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // A fresh engine over the same deployment, strictly single-threaded.
    let reference = QueryEngine::new(&g, &hubs, &index, config);
    let mut ws = reference.workspace();
    let mut checked = 0;
    for (q, scores) in concurrent.into_iter().flatten() {
        let expected = reference.query_with(&mut ws, q, &stop).scores;
        assert!(
            l1_diff(&scores, &expected) <= 1e-12,
            "query {q}: concurrent and single-threaded results diverge"
        );
        checked += 1;
    }
    assert!(checked >= THREADS, "every thread must have queried");
}

#[test]
fn service_pool_matches_single_threaded_engine() {
    let config = Config::default();
    let (g, hubs, index) = build_deployment(600, 50, 23, config);
    let service = QueryService::new(
        Arc::new(g),
        Arc::new(hubs),
        Arc::new(index),
        config,
        ServiceOptions {
            workers: 4,
            queue_capacity: 8,
            cache_capacity: 0, // every request exercises the engine
        },
    );
    // A skewed mix with repeats and mixed stopping conditions.
    let requests: Vec<Request> = (0..200u32)
        .map(|i| {
            let q = (i * 37) % 600;
            if i % 3 == 0 {
                Request::l1_error(q, 0.05)
            } else {
                Request::iterations(q, (i % 4) as usize)
            }
        })
        .collect();
    let responses = service.process_batch(requests.clone());
    assert_eq!(responses.len(), requests.len());

    let state = service.snapshot();
    let engine = state.engine(*service.config());
    let mut ws = engine.workspace();
    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(resp.query, req.query, "request order must be preserved");
        let expected = engine.query_with(&mut ws, req.query, &req.stop);
        assert!(
            l1_diff(&resp.scores, &expected.scores) <= 1e-12,
            "query {}: pooled and direct results diverge",
            req.query
        );
        assert_eq!(resp.iterations, expected.iterations);
    }
}

/// The bytes of the index file (`f64` scores, so byte-identical means
/// bit-identical PPVs).
fn serialize_index(index: &FlatIndex, name: &str) -> Vec<u8> {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "fastppv-determinism-{}-{name}.idx",
        std::process::id()
    ));
    index.write_to_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn parallel_build_is_byte_identical() {
    let g = barabasi_albert(500, 3, 31);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 50, 0);
    let config = Config::default();
    let (serial, _) = build_index(&g, &hubs, &config);
    let reference = serialize_index(&serial, "serial");
    for threads in [2usize, 4, 8] {
        let (parallel, _) = build_flat_index(&g, &hubs, &config, threads);
        let bytes = serialize_index(&parallel, &format!("t{threads}"));
        assert_eq!(
            bytes, reference,
            "{threads}-thread build must serialize byte-identically to serial"
        );
    }
}

#[test]
fn work_stealing_build_is_byte_identical_under_pathological_order() {
    // Largest prime subgraph first: the adversarial ordering for static
    // contiguous chunking (one chunk would draw every giant while the
    // others idle). Work stealing must both survive it (no skew
    // assumptions baked into the merge) and stay byte-identical to a
    // serial build of the same order — and, because the serialized file
    // sorts hubs, to the default-order build too.
    let g = barabasi_albert(500, 3, 31);
    let hubs = select_hubs(&g, HubPolicy::ExpectedUtility, 50, 0);
    // ε = 1e-3 keeps prime subgraphs genuinely size-skewed at this scale
    // (at 1e-8 every ε-ball spans the whole 500-node graph).
    let config = Config::default().with_epsilon(1e-3);
    let mut pc = PrimeComputer::new(g.num_nodes());
    let mut sized: Vec<(usize, NodeId)> = hubs
        .ids()
        .iter()
        .map(|&h| (pc.extract(&g, &hubs, h, &config).num_nodes(), h))
        .collect();
    sized.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    assert!(
        sized.first().unwrap().0 > 2 * sized.last().unwrap().0,
        "workload not skewed enough to be a meaningful ordering test"
    );
    let order: Vec<NodeId> = sized.into_iter().map(|(_, h)| h).collect();

    let (serial, _) = build_index_in_order(&g, &hubs, &order, &config, 1);
    let reference = serialize_index(&serial, "pathological-serial");
    for threads in [2usize, 4, 8] {
        let (parallel, _) = build_index_in_order(&g, &hubs, &order, &config, threads);
        let bytes = serialize_index(&parallel, &format!("pathological-t{threads}"));
        assert_eq!(
            bytes, reference,
            "{threads}-thread largest-first build must serialize byte-identically"
        );
    }
    let (default_order, _) = build_index(&g, &hubs, &config);
    assert_eq!(
        serialize_index(&default_order, "default-order"),
        reference,
        "serialized index must not depend on build order at all"
    );
}

#[test]
fn cache_hits_equal_misses_and_dynamic_update_invalidates() {
    let config = Config::default();
    let (g, hubs, index) = build_deployment(400, 40, 47, config);
    let query: NodeId = (0..400).find(|&v| !hubs.is_hub(v)).unwrap();
    let service = QueryService::new(
        Arc::new(g),
        Arc::new(hubs),
        Arc::new(index),
        config,
        ServiceOptions {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 64,
        },
    );

    // Miss then hit: identical to 1e-12 (in fact, the same allocation).
    let miss = service.query(Request::iterations(query, 2));
    let hit = service.query(Request::iterations(query, 2));
    assert!(!miss.cached && hit.cached);
    assert_eq!(l1_diff(&miss.scores, &hit.scores), 0.0);
    assert_eq!(hit.l1_error, miss.l1_error);

    // A dynamic edge insertion at the query node must invalidate: the next
    // request is a miss again and matches a fresh engine on the new graph.
    let old = service.graph();
    let mut b = GraphBuilder::new(400);
    for (s, t) in old.edges() {
        b.add_edge(s, t);
    }
    let target = (query + 211) % 400;
    b.add_edge(query, target);
    service.apply_update(b.build(), &[query]);

    let after = service.query(Request::iterations(query, 2));
    assert!(!after.cached, "update must invalidate the hot-PPV cache");
    let state = service.snapshot();
    let engine = state.engine(*service.config());
    let expected = engine.query(query, &StoppingCondition::iterations(2));
    assert!(
        l1_diff(&after.scores, &expected.scores) <= 1e-12,
        "post-update result must match a fresh engine on the new graph"
    );
    assert!(
        l1_diff(&after.scores, &miss.scores) > 1e-9,
        "the inserted edge changes the PPV, so a stale hit would be wrong"
    );
    // And the refreshed result is cacheable again: hit equals miss.
    let rehit = service.query(Request::iterations(query, 2));
    assert!(rehit.cached);
    assert_eq!(l1_diff(&rehit.scores, &after.scores), 0.0);
}

#[test]
fn engine_and_service_are_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine<'_, FlatIndex>>();
    assert_send_sync::<QueryService<FlatIndex>>();
}
