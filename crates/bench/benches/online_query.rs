//! Criterion micro-bench: FastPPV online query latency.
//!
//! Sweeps the two online knobs the paper studies — iterations η (Fig. 12)
//! and hub count |H| (Fig. 10) — on a fixed DBLP-like graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastppv_bench::datasets;
use fastppv_bench::workload::sample_queries;
use fastppv_core::hubs::{select_hubs, HubPolicy};
use fastppv_core::offline::build_flat_index;
use fastppv_core::query::{QueryEngine, StoppingCondition};
use fastppv_core::Config;
use fastppv_graph::gen::barabasi_albert;

fn bench_eta(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, graph.num_nodes() / 25, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 4);
    let queries = sample_queries(graph, 16, 7);
    let mut group = c.benchmark_group("online_query_eta");
    group.sample_size(20);
    for eta in [0usize, 1, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(eta), &eta, |b, &eta| {
            let engine = QueryEngine::new(graph, &hubs, &index, config);
            let stop = StoppingCondition::iterations(eta);
            let mut ws = engine.workspace();
            let mut i = 0;
            b.iter(|| {
                let q = queries[i % queries.len()];
                i += 1;
                std::hint::black_box(engine.query_with(&mut ws, q, &stop))
            });
        });
    }
    group.finish();
}

fn bench_hub_count(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let config = Config::default().with_epsilon(1e-6);
    let queries = sample_queries(graph, 16, 7);
    let mut group = c.benchmark_group("online_query_hub_count");
    group.sample_size(20);
    for divisor in [100usize, 50, 25, 12] {
        let hubs = select_hubs(
            graph,
            HubPolicy::ExpectedUtility,
            graph.num_nodes() / divisor,
            0,
        );
        let (index, _) = build_flat_index(graph, &hubs, &config, 4);
        group.bench_with_input(BenchmarkId::from_parameter(hubs.len()), &(), |b, _| {
            let engine = QueryEngine::new(graph, &hubs, &index, config);
            let stop = StoppingCondition::iterations(2);
            let mut ws = engine.workspace();
            let mut i = 0;
            b.iter(|| {
                let q = queries[i % queries.len()];
                i += 1;
                std::hint::black_box(engine.query_with(&mut ws, q, &stop))
            });
        });
    }
    group.finish();
}

/// The accuracy-aware stop on an accuracy-grade index — the shape of
/// ppvbench's `accuracy` workload (BA-5k, 200 hubs, `δ = 0`, clip 0, stop
/// `φ ≤ 0.1`): several rounds over most of the hub set, where the query
/// *is* the increment loop. One hub source (iteration 0 is an arena view)
/// and one non-hub source (iteration 0 is an exact prime-0 solve).
fn bench_phi_stop(c: &mut Criterion) {
    let graph = barabasi_albert(5000, 4, 0xacc0);
    let config = Config::default()
        .with_epsilon(1e-6)
        .with_delta(0.0)
        .with_clip(0.0);
    let hubs = select_hubs(&graph, HubPolicy::ExpectedUtility, 200, 0);
    let (flat, _) = build_flat_index(&graph, &hubs, &config, 2);
    let non_hub = graph.nodes().find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let stop = StoppingCondition::l1_error(0.1);
    let mut group = c.benchmark_group("online_query_phi_stop");
    group.sample_size(30);
    for (label, q) in [("hub", hubs.ids()[0]), ("non_hub", non_hub)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &q, |b, &q| {
            let engine = QueryEngine::new(&graph, &hubs, &flat, config);
            let mut ws = engine.workspace();
            b.iter(|| std::hint::black_box(engine.query_with(&mut ws, q, &stop)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eta, bench_hub_count, bench_phi_stop);
criterion_main!(benches);
