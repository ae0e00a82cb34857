//! Disk-based pipeline integration: clustering → cluster store → fault-
//! counted queries, compared against the in-memory engine — plus the
//! scatter/gather router's exactness oracle: the same index sliced
//! across shards and merged by `fastppv::router` must reproduce the
//! single-process answer to ≤ 1e-12 for every stopping condition, and
//! merging over loopback TCP must reproduce the in-process merge exactly.
//!
//! One more test pins the disk engine itself (paper §5.3 / Fig. 16): on a
//! seeded clustered BA graph at resident capacity 1, every query's cluster
//! faults, its truncation flag, a digest of its answer's bits and the
//! node count of its prime subgraph, under fault caps `None`, 1 and 4. The fault counts follow the order in which
//! the prime-subgraph search and the row copy probe clusters, so a change
//! that reorders probes shows here even when the answers agree.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use fastppv::cluster::partition::{cluster_graph, ClusteringOptions};
use fastppv::cluster::query::{disk_query, DiskQueryWorkspace};
use fastppv::cluster::store::{write_clustered_graph, DiskGraph};
use fastppv::cluster::{slice_store, ShardMap};
use fastppv::core::query::{QueryEngine, StoppingCondition};
use fastppv::core::{build_flat_index, select_hubs, Config, FlatIndex, HubPolicy, PrimeComputer};
use fastppv::graph::gen::barabasi_albert;
use fastppv::graph::gen::{BibNetwork, DblpParams};
use fastppv::graph::vec::ScoreScratch;
use fastppv::graph::Graph;
use fastppv::router::{merge_query, LocalBackend, RouterConfig, TcpBackend, TcpBackendOptions};
use fastppv::server::net::serve;
use fastppv::server::{QueryService, ServiceOptions};
use fastppv_bench::workload::Fnv1a;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "fastppv-clint-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    p
}

#[test]
fn fully_disk_resident_pipeline_matches_memory() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 1_500,
            venues: 20,
            ..Default::default()
        },
        6,
    );
    let graph = &net.graph;
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-6).with_clip(0.0);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 2);

    // Graph and PPV index both on disk.
    let clg = temp_path("graph.clg");
    let idx = temp_path("index.fppv");
    let clustering = cluster_graph(graph, 12, ClusteringOptions::default());
    write_clustered_graph(graph, &clustering, &clg).unwrap();
    index.write_to_file(&idx).unwrap();

    let mut disk = DiskGraph::open(&clg, 1).unwrap();
    let disk_index = FlatIndex::open(&idx).unwrap();
    let mut ws = DiskQueryWorkspace::new(n);
    let mem_engine = QueryEngine::new(graph, &hubs, &index, config);
    let stop = StoppingCondition::iterations(2);

    let queries: Vec<u32> = (0..n as u32)
        .filter(|&v| !hubs.is_hub(v))
        .step_by(n / 5)
        .take(4)
        .collect();
    for &q in &queries {
        let mem = mem_engine.query(q, &stop);
        let dsk = disk_query(
            &mut disk,
            &hubs,
            &disk_index,
            &config,
            q,
            &stop,
            None,
            &mut ws,
        );
        // The arena file stores the index's own f64 scores.
        assert_eq!(mem.scores.len(), dsk.result.scores.len(), "q {q}");
        for (&(va, sa), &(vb, sb)) in mem.scores.entries().iter().zip(dsk.result.scores.entries()) {
            assert_eq!(va, vb, "q {q}");
            assert!((sa - sb).abs() < 1e-12, "q {q} node {va}: {sa} vs {sb}");
        }
    }
    std::fs::remove_file(&clg).unwrap();
    std::fs::remove_file(&idx).unwrap();
}

#[test]
fn fault_cap_bounds_io_and_keeps_phi_sound() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 1_000,
            venues: 15,
            ..Default::default()
        },
        7,
    );
    let graph = &net.graph;
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-7);
    // Few hubs -> large prime subgraphs -> many cluster touches.
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, 10, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 2);
    let clg = temp_path("capped.clg");
    let clustering = cluster_graph(graph, 20, ClusteringOptions::default());
    write_clustered_graph(graph, &clustering, &clg).unwrap();
    let mut disk = DiskGraph::open(&clg, 1).unwrap();
    let mut ws = DiskQueryWorkspace::new(n);
    let q = (0..n as u32).find(|&v| !hubs.is_hub(v)).unwrap();
    let stop = StoppingCondition::iterations(1);

    let mut last_faults = u64::MAX;
    for cap in [20u64, 5, 1] {
        let res = disk_query(
            &mut disk,
            &hubs,
            &index,
            &config,
            q,
            &stop,
            Some(cap),
            &mut ws,
        );
        assert!(res.faults <= cap, "cap {cap}: faults {}", res.faults);
        assert!(res.faults <= last_faults);
        last_faults = res.faults;
        // φ stays in [0, 1]: truncation only increases reported error.
        assert!(res.result.l1_error >= 0.0 && res.result.l1_error <= 1.0);
    }
    std::fs::remove_file(&clg).unwrap();
}

/// Per fault cap (`None`, 1, 4), per query: `(faults, truncated, answer
/// digest)`. The digest folds every `(node, score bits)` entry, φ's bits
/// and the iteration count.
const DISK_PINS: [[(u64, bool, u64); 6]; 3] = [
    [
        (3699, false, 0xa545_229e_1597_292c),
        (3641, false, 0x2c25_9ddd_0bbe_2ca7),
        (3592, false, 0x60a1_810c_47f6_e06c),
        (3659, false, 0x5d6c_56e5_00e2_052a),
        (3501, false, 0xb762_484e_3070_e58b),
        (0, false, 0xaeb1_5c4d_1849_2a4e),
    ],
    [
        (1, true, 0x6273_ad0d_3dc8_04ac),
        (1, true, 0x024d_f69b_2eec_9273),
        (1, true, 0x5314_bd04_d5ac_9d57),
        (1, true, 0x87b8_7a0b_bf10_5f97),
        (1, true, 0xd022_f042_1482_64f2),
        (0, false, 0xaeb1_5c4d_1849_2a4e),
    ],
    [
        (4, true, 0x2f19_9796_0aa2_ab6d),
        (4, true, 0x024d_f69b_2eec_9273),
        (4, true, 0xbdba_1756_cc4d_4c27),
        (4, true, 0xde9f_481b_d60b_8dc0),
        (4, true, 0x9608_a70b_2126_03e9),
        (0, false, 0xaeb1_5c4d_1849_2a4e),
    ],
];

/// Per fault cap, the node count `prime_ppv_from` reports for the five
/// non-hub sources above, each probed from a fresh fault count.
const DISK_PRIME0_SIZES: [[usize; 5]; 3] = [
    [1489, 1487, 1485, 1486, 1485],
    [268, 189, 245, 274, 237],
    [272, 202, 146, 171, 289],
];

#[test]
fn disk_query_faults_truncation_and_answers_are_pinned() {
    let graph = barabasi_albert(1_500, 3, 23);
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 40, 0);
    let (index, _) = build_flat_index(&graph, &hubs, &config, 1);
    let clg = temp_path("pinned.clg");
    let clustering = cluster_graph(&graph, 12, ClusteringOptions::default());
    write_clustered_graph(&graph, &clustering, &clg).unwrap();
    // Five non-hub sources spread over the id range, then a hub (whose
    // prime-0 comes from the index: no probe at all).
    let mut queries: Vec<u32> = (0..n as u32)
        .filter(|&v| !hubs.is_hub(v))
        .step_by(n / 5)
        .take(5)
        .collect();
    queries.push(hubs.ids()[3]);
    let stop = StoppingCondition::iterations(2);
    let mut got = Vec::new();
    for cap in [None, Some(1), Some(4)] {
        // A fresh graph per cap: the resident cluster carries from one
        // query to the next, so each row starts from the same state.
        let mut disk = DiskGraph::open(&clg, 1).unwrap();
        let mut ws = DiskQueryWorkspace::new(n);
        let mut row = Vec::new();
        for &q in &queries {
            let res = disk_query(&mut disk, &hubs, &index, &config, q, &stop, cap, &mut ws);
            let mut digest = Fnv1a::default();
            for &(v, s) in res.result.scores.entries() {
                digest.update(&v.to_le_bytes());
                digest.update(&s.to_bits().to_le_bytes());
            }
            digest.update(&res.result.l1_error.to_bits().to_le_bytes());
            digest.update(&(res.result.iterations as u64).to_le_bytes());
            row.push((res.faults, res.truncated, digest.finish()));
        }
        got.push(row);
    }
    // The node count the disk prime-0 reports is the nodes its copied
    // rows reach, interior and absorbers, under every cap.
    let mut sizes = Vec::new();
    let mut pc = PrimeComputer::new(n);
    for cap in [None, Some(1), Some(4)] {
        let mut disk = DiskGraph::open(&clg, 1).unwrap();
        let mut row = Vec::new();
        for &q in &queries[..5] {
            disk.reset_faults();
            disk.set_fault_cap(cap);
            row.push(pc.prime_ppv_from(&mut disk, &hubs, q, &config).1);
        }
        sizes.push(row);
    }
    std::fs::remove_file(&clg).unwrap();
    assert_eq!(sizes, DISK_PRIME0_SIZES, "prime_ppv_from's node counts");
    for (cap, (got, want)) in ["None", "1", "4"].iter().zip(got.iter().zip(&DISK_PINS)) {
        assert_eq!(got.as_slice(), want.as_slice(), "fault cap {cap}");
    }
}

/// Slices `index` across `num_shards` in-process shard services by a
/// clustering-derived ownership map and returns the backend + map. Each
/// shard holds only its owned hubs' prime PPVs but the full graph and
/// hub set (prime-PPV decomposition must block at every hub).
fn sharded_backend(
    graph: &Arc<Graph>,
    hubs: &Arc<fastppv::core::HubSet>,
    index: &FlatIndex,
    config: Config,
    num_shards: u32,
) -> (LocalBackend<FlatIndex>, ShardMap) {
    let clustering = cluster_graph(graph, 10, ClusteringOptions::default());
    let map = ShardMap::from_clustering(&clustering, num_shards);
    let services: Vec<_> = (0..num_shards)
        .map(|s| {
            let slice = slice_store(index, hubs, &map, s);
            Arc::new(QueryService::new(
                Arc::clone(graph),
                Arc::clone(hubs),
                Arc::new(slice),
                config,
                ServiceOptions {
                    workers: 2,
                    ..ServiceOptions::default()
                },
            ))
        })
        .collect();
    (LocalBackend::new(services), map)
}

/// The router's exactness oracle: scattering an index across shards and
/// merging must reproduce the single-process engine bit-for-bit up to
/// floating-point reassociation (≤ 1e-12 — the per-shard partial sums
/// re-associate the additions), for iteration-count and L1-target stops
/// alike, on hub and non-hub queries. The same shards served over
/// loopback TCP must merge to exactly the in-process answer — same
/// scores, φ, iterations and epoch, bit for bit — without a hedge.
#[test]
fn router_merge_matches_single_process_for_every_stop() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 1_200,
            venues: 18,
            ..Default::default()
        },
        11,
    );
    let graph = Arc::new(net.graph);
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-6);
    let hubs = Arc::new(select_hubs(&graph, HubPolicy::ExpectedUtility, n / 25, 0));
    let (index, _) = build_flat_index(&graph, &hubs, &config, 2);
    let cfg = RouterConfig {
        alpha: config.alpha,
        delta: config.delta,
        num_nodes: n,
    };
    let engine = QueryEngine::new(&graph, &hubs, &index, config);
    let mut scratch = ScoreScratch::new(n);

    let mut stops: Vec<StoppingCondition> = (0..=3).map(StoppingCondition::iterations).collect();
    stops.extend([0.5, 0.2, 0.05].map(StoppingCondition::l1_error));
    // A spread of non-hub queries plus a couple of hubs (their prime0
    // comes straight off the owning shard's stored PPV).
    let mut queries: Vec<u32> = (0..n as u32)
        .filter(|&v| !hubs.is_hub(v))
        .step_by(n / 5)
        .take(4)
        .collect();
    queries.extend(hubs.ids().iter().copied().take(2));

    for num_shards in [2, 3] {
        let (backend, map) = sharded_backend(&graph, &hubs, &index, config, num_shards);
        // The same shard services behind loopback servers. The hedge
        // floor is far above any sub-request here, so every reply must
        // arrive on the inline path.
        let servers: Vec<_> = (0..num_shards as usize)
            .map(|s| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                serve(Arc::clone(backend.service(s)), listener).unwrap()
            })
            .collect();
        let tcp = TcpBackend::new(
            servers.iter().map(|s| s.local_addr()).collect(),
            TcpBackendOptions {
                hedge_delay_floor: Duration::from_secs(10),
                sub_request_timeout: Duration::from_secs(60),
                ..TcpBackendOptions::default()
            },
        );
        for &q in &queries {
            for stop in &stops {
                let single = engine.query(q, stop);
                let merged = merge_query(&backend, &map, &cfg, q, stop, 0, &mut scratch)
                    .unwrap_or_else(|e| panic!("q {q}: merge failed: {e}"));
                assert!(!merged.degraded, "q {q}: no shard was down");
                assert!(merged.shards_skipped.is_empty(), "q {q}");
                assert_eq!(merged.iterations, single.iterations, "q {q} stop {stop:?}");
                assert_eq!(merged.exhausted, single.exhausted, "q {q} stop {stop:?}");
                assert!(
                    (merged.l1_error - single.l1_error).abs() <= 1e-12,
                    "q {q} stop {stop:?}: φ {} vs {}",
                    merged.l1_error,
                    single.l1_error
                );
                assert_eq!(
                    merged.scores.len(),
                    single.scores.len(),
                    "q {q} stop {stop:?}"
                );
                for (&(va, sa), &(vb, sb)) in merged.scores.iter().zip(single.scores.entries()) {
                    assert_eq!(va, vb, "q {q} stop {stop:?}");
                    assert!(
                        (sa - sb).abs() <= 1e-12,
                        "q {q} stop {stop:?} node {va}: {sa} vs {sb}"
                    );
                }

                let wired = merge_query(&tcp, &map, &cfg, q, stop, 0, &mut scratch)
                    .unwrap_or_else(|e| panic!("q {q}: TCP merge failed: {e}"));
                let what = format!("{num_shards} shards, q {q} stop {stop:?}");
                assert!(!wired.degraded && wired.shards_skipped.is_empty(), "{what}");
                assert_eq!(wired.iterations, merged.iterations, "{what}");
                assert_eq!(wired.exhausted, merged.exhausted, "{what}");
                assert_eq!(wired.epoch, merged.epoch, "{what}");
                assert_eq!(
                    wired.l1_error.to_bits(),
                    merged.l1_error.to_bits(),
                    "{what}"
                );
                let bits = |a: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    a.iter().map(|&(v, x)| (v, x.to_bits())).collect()
                };
                assert_eq!(bits(&wired.scores), bits(&merged.scores), "{what}");
            }
        }
        assert_eq!(tcp.hedges_sent(), 0, "{num_shards} shards");
        for server in servers {
            server.shutdown();
        }
    }
}

/// Certified degradation: with one shard dead, every answer the merge
/// still produces must carry a φ that upper-bounds its true L1 distance
/// to the *full-cluster* answer under the same stop — the dropped border
/// mass is charged into φ, never silently lost.
#[test]
fn router_degraded_phi_bounds_gap_to_full_answer() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 1_000,
            venues: 15,
            ..Default::default()
        },
        13,
    );
    let graph = Arc::new(net.graph);
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-6);
    let hubs = Arc::new(select_hubs(&graph, HubPolicy::ExpectedUtility, n / 20, 0));
    let (index, _) = build_flat_index(&graph, &hubs, &config, 2);
    let (backend, map) = sharded_backend(&graph, &hubs, &index, config, 4);
    let cfg = RouterConfig {
        alpha: config.alpha,
        delta: config.delta,
        num_nodes: n,
    };
    let mut scratch = ScoreScratch::new(n);
    let stop = StoppingCondition::iterations(3);
    let queries: Vec<u32> = (0..n as u32)
        .filter(|&v| !hubs.is_hub(v))
        .step_by(n / 6)
        .take(5)
        .collect();

    for dead in 0..4 {
        backend.set_dead(dead, true);
        for &q in &queries {
            let partial = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch)
                .unwrap_or_else(|e| panic!("q {q} dead {dead}: {e}"));
            backend.set_dead(dead, false);
            let full = merge_query(&backend, &map, &cfg, q, &stop, 0, &mut scratch).unwrap();
            backend.set_dead(dead, true);
            assert!(!full.degraded);
            // The partial estimate stays an entry-wise lower bound of the
            // full one, and the inflated φ covers the gap.
            let mut gap = 0.0;
            let mut pi = partial.scores.iter().peekable();
            for &(v, sf) in &full.scores {
                match pi.peek() {
                    Some(&&(pv, sp)) if pv == v => {
                        assert!(sp <= sf + 1e-12, "q {q} node {v}: partial above full");
                        gap += sf - sp;
                        pi.next();
                    }
                    _ => gap += sf,
                }
            }
            assert!(
                pi.peek().is_none(),
                "q {q}: partial answer has entries the full one lacks"
            );
            assert!(
                gap <= partial.l1_error + 1e-12,
                "q {q} dead {dead}: gap {gap} exceeds certified φ {}",
                partial.l1_error
            );
            assert!(
                partial.l1_error >= full.l1_error - 1e-12,
                "q {q} dead {dead}"
            );
            if partial.degraded {
                assert!(
                    !partial.exhausted,
                    "degraded answers never claim exhaustion"
                );
            }
        }
        backend.set_dead(dead, false);
    }
}

#[test]
fn clustering_quality_larger_cluster_count_shrinks_working_set() {
    let net = BibNetwork::generate(
        DblpParams {
            papers: 2_000,
            venues: 25,
            ..Default::default()
        },
        9,
    );
    let graph = &net.graph;
    let mut prev_ws = f64::INFINITY;
    for k in [5usize, 20, 60] {
        let clustering = cluster_graph(graph, k, ClusteringOptions::default());
        let clg = temp_path(&format!("ws-{k}.clg"));
        write_clustered_graph(graph, &clustering, &clg).unwrap();
        let disk = DiskGraph::open(&clg, 1).unwrap();
        let ws = disk.largest_cluster_bytes() as f64 / disk.total_cluster_bytes() as f64;
        assert!(ws <= prev_ws + 0.05, "k {k}: {ws} vs {prev_ws}");
        prev_ws = ws;
        std::fs::remove_file(&clg).unwrap();
    }
    assert!(prev_ws < 0.35, "60 clusters must shrink the working set");
}
