//! Serve-while-updating test suite: the guarantees the epoch-snapshot
//! service rests on.
//!
//! 1. **Hammer**: N threads query (mixing the single-request path and
//!    pooled batches) while `apply_update` fires repeatedly from another
//!    thread. Every response must *exactly* equal a from-scratch answer on
//!    one of the published graphs — no torn reads, no half-applied
//!    updates — and once the last update is in, no response (cached or
//!    not) may carry pre-update scores.
//! 2. The same contract holds for the flat-arena deployment, whose update
//!    path is copy-on-write (clone, patch, publish).
//! 3. The TCP front-end serves answers identical (≤ 1e-12) to a direct
//!    engine over the same snapshot, keeps serving across updates, and
//!    turns out-of-range ids into per-request errors.
//!
//! CI runs this file twice — `RUST_TEST_THREADS=1` and default
//! parallelism — so scheduling-order flakiness surfaces there, not in
//! users' terminals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fastppv::core::dynamic::{refresh_flat_index_snapshot_delta, DeltaConfig};
use fastppv::core::offline::{build_flat_index, build_index};
use fastppv::core::query::StoppingCondition;
use fastppv::core::{select_hubs, Config, FlatIndex, HubPolicy, HubSet, PpvStore, QueryEngine};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::{Graph, GraphBuilder, NodeId, SparseVector};
use fastppv::server::net::{Client, WireRequest};
use fastppv::server::{QueryService, Request, ServiceOptions};

const NODES: usize = 250;
const HUBS: usize = 25;
const UPDATES: usize = 3;
const ETAS: [usize; 2] = [2, 3];

/// The evolving graph sequence: `graphs[0]` is the seed, each successor
/// inserts one edge from `tail` (a non-hub) to a fresh target.
fn graph_sequence(hubs: &HubSet, seed: u64) -> (Vec<Graph>, NodeId) {
    let g0 = barabasi_albert(NODES, 3, seed);
    let tail = (0..NODES as u32).find(|&v| !hubs.is_hub(v)).unwrap();
    let mut graphs = vec![g0];
    for i in 0..UPDATES {
        let prev = graphs.last().unwrap();
        let mut b = GraphBuilder::new(NODES);
        for (s, t) in prev.edges() {
            b.add_edge(s, t);
        }
        b.add_edge(tail, (tail + 41 + 13 * i as u32) % NODES as u32);
        graphs.push(b.build());
    }
    (graphs, tail)
}

/// Query sample: every 10th node, plus the updated tail itself.
fn query_sample(tail: NodeId) -> Vec<NodeId> {
    let mut qs: Vec<NodeId> = (0..NODES as u32).step_by(10).collect();
    qs.push(tail);
    qs
}

/// From-scratch ground truth: `truth[epoch]` maps `(query, eta)` to the
/// exact scores an independent engine computes on that epoch's graph.
fn ground_truth<S: PpvStore>(
    stores: &[S],
    graphs: &[Graph],
    hubs: &HubSet,
    config: &Config,
    queries: &[NodeId],
) -> Vec<Vec<((NodeId, usize), SparseVector)>> {
    stores
        .iter()
        .zip(graphs)
        .map(|(store, graph)| {
            let engine = QueryEngine::new(graph, hubs, store, *config);
            let mut ws = engine.workspace();
            let mut map = Vec::new();
            for &q in queries {
                for eta in ETAS {
                    let r = engine.query_with(&mut ws, q, &StoppingCondition::iterations(eta));
                    map.push(((q, eta), r.scores));
                }
            }
            map
        })
        .collect()
}

fn lookup(truth: &[((NodeId, usize), SparseVector)], q: NodeId, eta: usize) -> &SparseVector {
    &truth
        .iter()
        .find(|((tq, te), _)| *tq == q && *te == eta)
        .expect("query in sample")
        .1
}

/// The epoch(s) whose ground truth exactly matches `scores` (a response
/// may legitimately match several epochs when the query is unaffected).
fn matching_epochs(
    truth: &[Vec<((NodeId, usize), SparseVector)>],
    q: NodeId,
    eta: usize,
    scores: &SparseVector,
) -> Vec<usize> {
    truth
        .iter()
        .enumerate()
        .filter(|(_, t)| lookup(t, q, eta) == scores)
        .map(|(e, _)| e)
        .collect()
}

/// The hammer itself. `service` must be
/// freshly built over `graphs[0]`; `truth[i]` is the from-scratch answer
/// key for `graphs[i]`.
fn hammer<S: PpvStore + Send + Sync>(
    service: &QueryService<S>,
    graphs: &[Graph],
    tail: NodeId,
    queries: &[NodeId],
    truth: &[Vec<((NodeId, usize), SparseVector)>],
    apply: impl Fn(&QueryService<S>, Graph, &[NodeId]),
) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Two single-request hammer threads…
        for t in 0..2usize {
            let stop = &stop;
            scope.spawn(move || {
                let mut served = 0usize;
                while !stop.load(Ordering::Acquire) {
                    for (i, &q) in queries.iter().enumerate() {
                        let eta = ETAS[(i + t) % ETAS.len()];
                        let r = service.query(Request::iterations(q, eta));
                        assert!(
                            !matching_epochs(truth, q, eta, &r.scores).is_empty(),
                            "query {q} η={eta}: response matches no published epoch \
                             (torn read or stale cache)"
                        );
                        served += 1;
                    }
                }
                assert!(served > 0);
            });
        }
        // …one pooled-batch hammer thread…
        {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let requests: Vec<Request> = queries
                        .iter()
                        .map(|&q| Request::iterations(q, ETAS[0]))
                        .collect();
                    let responses = service.process_batch(requests);
                    // A batch pins one snapshot: every response must match
                    // the *same* epoch, not merely some epoch each.
                    let mut common: Option<Vec<usize>> = None;
                    for r in &responses {
                        let epochs = matching_epochs(truth, r.query, ETAS[0], &r.scores);
                        assert!(!epochs.is_empty(), "batch response matches no epoch");
                        common = Some(match common {
                            None => epochs,
                            Some(prev) => prev.into_iter().filter(|e| epochs.contains(e)).collect(),
                        });
                    }
                    assert!(
                        common.map(|c| !c.is_empty()).unwrap_or(true),
                        "pooled batch mixed snapshots"
                    );
                }
            });
        }
        // …while the updater publishes each successor graph.
        for (i, g) in graphs.iter().enumerate().skip(1) {
            std::thread::sleep(Duration::from_millis(40));
            apply(service, g.clone(), &[tail]);
            assert_eq!(service.epoch(), i as u64, "one epoch per update");
        }
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Release);
    });
    // Every event in the stream changes the adjacency: none is skipped.
    assert_eq!(service.cache_stats().noop_update_skips, 0);

    // Post-invalidation: every response — and in particular every *cached*
    // response — must carry final-epoch scores, never resurrected ones.
    let last = truth.last().unwrap();
    for &q in queries {
        for eta in ETAS {
            let fresh = service.query(Request::iterations(q, eta));
            assert_eq!(
                *fresh.scores,
                *lookup(last, q, eta),
                "query {q} η={eta}: post-update response is not the final graph's answer"
            );
            let hit = service.query(Request::iterations(q, eta));
            assert!(hit.cached, "repeat deterministic request must hit");
            assert_eq!(*hit.scores, *lookup(last, q, eta));
        }
    }
}

#[test]
fn hammer_memory_service_updates_concurrent_with_queries() {
    let config = Config::default().with_epsilon(1e-6);
    let g0 = barabasi_albert(NODES, 3, 71);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, HUBS, 0);
    let (graphs, tail) = graph_sequence(&hubs, 71);
    let queries = query_sample(tail);
    let stores: Vec<_> = graphs
        .iter()
        .map(|g| build_index(g, &hubs, &config).0)
        .collect();
    let truth = ground_truth(&stores, &graphs, &hubs, &config, &queries);
    let service = QueryService::new(
        Arc::new(graphs[0].clone()),
        Arc::new(hubs),
        Arc::new(stores.into_iter().next().unwrap()),
        config,
        ServiceOptions {
            workers: 3,
            queue_capacity: 16,
            cache_capacity: 256,
        },
    );
    hammer(&service, &graphs, tail, &queries, &truth, |s, g, tails| {
        s.apply_update(g, tails);
    });
}

#[test]
fn hammer_flat_service_copy_on_write_updates() {
    let config = Config::default().with_epsilon(1e-6);
    let g0 = barabasi_albert(NODES, 3, 72);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, HUBS, 0);
    let (graphs, tail) = graph_sequence(&hubs, 72);
    let queries = query_sample(tail);
    let stores: Vec<FlatIndex> = graphs
        .iter()
        .map(|g| build_flat_index(g, &hubs, &config, 1).0)
        .collect();
    let truth = ground_truth(&stores, &graphs, &hubs, &config, &queries);
    let service = QueryService::new(
        Arc::new(graphs[0].clone()),
        Arc::new(hubs),
        Arc::new(stores.into_iter().next().unwrap()),
        config,
        ServiceOptions {
            workers: 3,
            queue_capacity: 16,
            cache_capacity: 256,
        },
    );
    // Pin the epoch-0 snapshot for the whole run: copy-on-write must leave
    // it bit-for-bit intact through every update.
    let pinned = service.snapshot();
    hammer(&service, &graphs, tail, &queries, &truth, |s, g, tails| {
        s.apply_update(g, tails);
    });
    let engine = pinned.engine(config);
    for &q in &queries {
        let r = engine.query(q, &StoppingCondition::iterations(ETAS[0]));
        assert_eq!(
            r.scores,
            *lookup(&truth[0], q, ETAS[0]),
            "pinned pre-update snapshot drifted under COW updates"
        );
    }
}

#[test]
fn flat_service_publish_shares_chunks_with_pinned_snapshot() {
    // Ten disjoint BA communities: an edge insert inside community 0 can
    // only dirty that community's hubs, so the bulk of the arena stays
    // live and untouched — the dead fraction never crosses the
    // compaction threshold and the COW publish must Arc-share chunks.
    let (k, per) = (10usize, 100usize);
    let communities = |seed: u64| {
        let mut b = GraphBuilder::new(k * per);
        for c in 0..k {
            let g = barabasi_albert(per, 3, seed + c as u64);
            let off = (c * per) as u32;
            for (s, t) in g.edges() {
                b.add_edge(s + off, t + off);
            }
        }
        b.build()
    };
    let config = Config::default().with_epsilon(1e-6);
    let g0 = communities(73);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, 40, 0);
    let tail = (0..per as u32).find(|&v| !hubs.is_hub(v)).unwrap();
    let mut b = GraphBuilder::new(k * per);
    for (s, t) in g0.edges() {
        b.add_edge(s, t);
    }
    b.add_edge(tail, (tail + 41) % per as u32);
    let g1 = b.build();
    let store = build_flat_index(&g0, &hubs, &config, 1).0;
    let service = QueryService::new(
        Arc::new(g0.clone()),
        Arc::new(hubs),
        Arc::new(store),
        config,
        ServiceOptions {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
        },
    );
    let pinned = service.snapshot();
    // Capture the pinned arena's bytes up front: after the update the
    // same Arc must still read back bit-for-bit identical.
    let before: Vec<(NodeId, Vec<(NodeId, u64)>)> = pinned
        .store()
        .hub_ids()
        .iter()
        .map(|&h| {
            let bits = pinned
                .store()
                .load(h)
                .expect("indexed hub")
                .entries
                .entries()
                .iter()
                .map(|&(v, s)| (v, s.to_bits()))
                .collect();
            (h, bits)
        })
        .collect();

    service.apply_update(g1, &[tail]);
    let published = service.store();

    // The publish is chunked copy-on-write: untouched chunks of the new
    // arena are the *same* Arc allocations as the pinned one — no deep
    // copy — while dirty hubs went to fresh tail chunks.
    let shared = published.shared_chunk_count(pinned.store());
    assert!(
        shared > 0,
        "published arena shares no chunks with the snapshot it was derived \
         from: the deep-clone publish stall is back"
    );
    assert!(
        published.bytes_cloned() < pinned.store().arena_bytes() as u64,
        "publish deep-copied at least the whole arena ({} bytes cloned, \
         arena is {})",
        published.bytes_cloned(),
        pinned.store().arena_bytes()
    );

    // And the pinned snapshot still reads exactly what it read before.
    for (h, bits) in &before {
        let now: Vec<(NodeId, u64)> = pinned
            .store()
            .load(*h)
            .expect("indexed hub")
            .entries
            .entries()
            .iter()
            .map(|&(v, s)| (v, s.to_bits()))
            .collect();
        assert_eq!(now, *bits, "pinned hub {h} drifted under a COW publish");
    }
}

#[test]
fn hammer_flat_service_delta_patched_updates() {
    let config = Config::default().with_epsilon(1e-6);
    let delta = DeltaConfig::default().with_budget(0.05);
    let g0 = barabasi_albert(NODES, 3, 74);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, HUBS, 0);
    let (graphs, tail) = graph_sequence(&hubs, 74);
    let queries = query_sample(tail);
    // The delta refresh is deterministic, so the published store chain is
    // known in advance: epoch i's store is epoch i-1's patched under the
    // same DeltaConfig the service runs. Ground truth per epoch comes from
    // an independent engine over exactly those stores — every hammered
    // answer must land on one of them, bit for bit.
    let mut stores: Vec<FlatIndex> = vec![build_flat_index(&graphs[0], &hubs, &config, 1).0];
    for i in 1..graphs.len() {
        let (next, stats) = refresh_flat_index_snapshot_delta(
            &stores[i - 1],
            &graphs[i - 1],
            &graphs[i],
            &hubs,
            &[tail],
            &config,
            &delta,
        );
        assert!(
            stats.delta_patched > 0 || stats.recomputed > 0,
            "the inserted edge must dirty at least one hub"
        );
        assert!(stats.budget_watermark <= delta.budget);
        stores.push(next);
    }
    let truth = ground_truth(&stores, &graphs, &hubs, &config, &queries);
    let service = QueryService::new(
        Arc::new(graphs[0].clone()),
        Arc::new(hubs),
        Arc::new(stores.into_iter().next().unwrap()),
        config,
        ServiceOptions {
            workers: 3,
            queue_capacity: 16,
            cache_capacity: 256,
        },
    )
    .with_delta_config(delta);
    hammer(&service, &graphs, tail, &queries, &truth, |s, g, tails| {
        s.apply_update(g, tails);
    });
}

/// L1 distance between a wire entry list and a sparse vector.
fn l1_diff_entries(entries: &[(NodeId, f64)], b: &SparseVector) -> f64 {
    let mut d: f64 = entries.iter().map(|&(v, s)| (s - b.get(v)).abs()).sum();
    for &(v, s) in b.entries() {
        if !entries.iter().any(|&(e, _)| e == v) {
            d += s.abs();
        }
    }
    d
}

#[test]
fn loopback_socket_serves_across_updates() {
    let config = Config::default().with_epsilon(1e-6);
    let g0 = barabasi_albert(NODES, 3, 73);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, HUBS, 0);
    let (graphs, tail) = graph_sequence(&hubs, 73);
    let queries = query_sample(tail);
    let stores: Vec<_> = graphs
        .iter()
        .map(|g| build_index(g, &hubs, &config).0)
        .collect();
    let truth = ground_truth(&stores, &graphs, &hubs, &config, &queries);
    let service = Arc::new(QueryService::new(
        Arc::new(graphs[0].clone()),
        Arc::new(hubs),
        Arc::new(stores.into_iter().next().unwrap()),
        config,
        ServiceOptions {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
        },
    ));
    let server = fastppv::server::net::serve(
        Arc::clone(&service),
        std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.num_nodes(), NODES as u64);

    // Pre-update: full vectors over the wire match epoch-0 truth ≤ 1e-12
    // (bit-exact, in fact — the wire carries f64 bits verbatim).
    let requests: Vec<WireRequest> = queries
        .iter()
        .map(|&q| WireRequest::iterations(q, ETAS[0] as u32))
        .collect();
    let responses = client.request_batch(&requests).unwrap();
    for (r, &q) in responses.iter().zip(&queries) {
        let a = r.answer().expect("in-range id is served");
        assert!(
            l1_diff_entries(&a.entries, lookup(&truth[0], q, ETAS[0])) <= 1e-12,
            "socket answer for {q} diverges from the direct engine"
        );
    }

    // Updates land while the connection stays open; every answer matches
    // a published epoch, and after the last update, exactly the final one.
    for g in graphs.iter().skip(1) {
        service.apply_update(g.clone(), &[tail]);
        let responses = client.request_batch(&requests).unwrap();
        for (r, &q) in responses.iter().zip(&queries) {
            let a = r.answer().unwrap();
            let exact: SparseVector = a.entries.iter().copied().collect();
            assert!(
                !matching_epochs(&truth, q, ETAS[0], &exact).is_empty(),
                "socket answer for {q} matches no published epoch"
            );
        }
    }
    let responses = client.request_batch(&requests).unwrap();
    let last = truth.last().unwrap();
    for (r, &q) in responses.iter().zip(&queries) {
        let a = r.answer().unwrap();
        assert!(
            l1_diff_entries(&a.entries, lookup(last, q, ETAS[0])) <= 1e-12,
            "post-update socket answer for {q} is not the final graph's"
        );
    }

    // Out-of-range ids are per-request errors; the connection survives.
    let mixed = client
        .request_batch(&[
            WireRequest::iterations(queries[0], 2),
            WireRequest::iterations(NODES as u32, 2),
        ])
        .unwrap();
    assert!(mixed[0].answer().is_some());
    assert!(mixed[1].error().unwrap().contains("out of range"));

    drop(client);
    server.shutdown();
}

#[test]
fn expired_deadline_yields_partial_but_certified_answer_without_perturbing_batchmates() {
    use fastppv::baselines::{exact_ppv, ExactOptions};
    use std::time::Instant;

    let config = Config::default().with_epsilon(1e-6);
    let g0 = barabasi_albert(NODES, 3, 75);
    let hubs = select_hubs(&g0, HubPolicy::ExpectedUtility, HUBS, 0);
    let queries = query_sample(0);
    let (store, _) = build_index(&g0, &hubs, &config);
    let graph = Arc::new(g0);
    let truth = ground_truth(
        std::slice::from_ref(&store),
        std::slice::from_ref(&graph),
        &hubs,
        &config,
        &queries,
    );
    let service = QueryService::new(
        Arc::clone(&graph),
        Arc::new(hubs),
        Arc::new(store),
        config,
        ServiceOptions {
            workers: 3,
            queue_capacity: 16,
            cache_capacity: 64,
        },
    );

    // One request in the middle of a pooled batch arrives with its
    // deadline already spent; its neighbors carry none.
    let victim = queries.len() / 2;
    let eta = ETAS[1];
    let batch = |stamp: Instant| -> Vec<Request> {
        queries
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let r = Request::iterations(q, eta);
                if i == victim {
                    r.with_deadline(stamp)
                } else {
                    r
                }
            })
            .collect()
    };
    let responses = service.process_batch(batch(Instant::now()));

    // The victim is answered, not errored: fewer increments than asked,
    // and φ still a true bound against an exact offline recompute.
    let v = &responses[victim];
    assert!(
        v.iterations < eta,
        "an expired deadline must cut iterations"
    );
    let exact = exact_ppv(&graph, v.query, ExactOptions::default());
    let gap: f64 = graph
        .nodes()
        .map(|n| exact[n as usize] - v.scores.get(n))
        .sum();
    assert!(
        gap <= v.l1_error + 1e-9,
        "partial φ {} does not bound the true gap {gap}",
        v.l1_error
    );

    // Batchmates are untouched: full-η answers, exactly the epoch truth.
    for (i, r) in responses.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert_eq!(
            *r.scores,
            *lookup(&truth[0], r.query, eta),
            "query {}: a neighbor's expired deadline perturbed this answer",
            r.query
        );
    }

    // Deadline-carrying requests are uncacheable in both directions: the
    // partial answer is never stored, and a deadline request never reads
    // the memo (a full cached vector would overshoot the time budget's
    // contract of "best effort by the deadline" with a stale-keyed hit).
    let again = service.process_batch(batch(Instant::now()));
    assert!(
        !again[victim].cached,
        "a deadline request must bypass the hot-PPV cache"
    );
    let full = service.query(Request::iterations(queries[victim], eta));
    assert!(
        !full.cached,
        "the partial deadline answer leaked into the cache"
    );
    assert_eq!(*full.scores, *lookup(&truth[0], full.query, eta));
}

#[test]
fn service_stays_sync_with_snapshot_state() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService<FlatIndex>>();
    assert_send_sync::<fastppv::server::ServingState<FlatIndex>>();
}
