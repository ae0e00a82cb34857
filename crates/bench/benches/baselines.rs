//! Criterion micro-bench: the baselines' online primitives — BCA push
//! (HubRankP's engine) and Monte Carlo walk sampling — against a FastPPV
//! query at the same operating point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastppv_baselines::bca::{bca_push_with_hubs, BcaOptions};
use fastppv_baselines::hubrank::{build_hubrank_index, select_hubs_by_benefit, HubRankOptions};
use fastppv_baselines::montecarlo::{build_fingerprint_index, montecarlo_query, MonteCarloOptions};
use fastppv_bench::datasets;
use fastppv_bench::workload::sample_queries;
use fastppv_core::hubs::{select_hubs, HubPolicy};
use fastppv_core::offline::build_flat_index;
use fastppv_core::query::{QueryEngine, StoppingCondition};
use fastppv_core::Config;
use fastppv_graph::{pagerank, PageRankOptions, ScoreScratch};

fn bench_methods(c: &mut Criterion) {
    let dataset = datasets::dblp(0.1, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let pr = pagerank(graph, PageRankOptions::default());
    let queries = sample_queries(graph, 16, 7);
    let hub_count = n / 25;
    let mut group = c.benchmark_group("baseline_online");
    group.sample_size(20);

    // FastPPV at η = 2.
    let config = Config::default().with_epsilon(1e-6);
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, hub_count, 0);
    let (index, _) = build_flat_index(graph, &hubs, &config, 4);
    group.bench_function("fastppv_eta2", |b| {
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

    // HubRankP push at two accuracy targets.
    let benefit_hubs = select_hubs_by_benefit(hub_count, &pr);
    let hr_index = build_hubrank_index(
        graph,
        &benefit_hubs,
        HubRankOptions {
            offline_residual: 2e-3,
            ..Default::default()
        },
    );
    for push in [0.11f64, 0.02] {
        group.bench_with_input(
            BenchmarkId::new("hubrankp_push", format!("{push}")),
            &push,
            |b, &push| {
                let opts = BcaOptions {
                    residual_target: push,
                    ..Default::default()
                };
                let mut i = 0;
                b.iter(|| {
                    let q = queries[i % queries.len()];
                    i += 1;
                    std::hint::black_box(bca_push_with_hubs(graph, q, opts, &hr_index))
                });
            },
        );
    }

    // MonteCarlo at two sample budgets.
    let mc_opts = MonteCarloOptions {
        fingerprints_per_hub: 2_000,
        ..Default::default()
    };
    let mc_index = build_fingerprint_index(graph, &benefit_hubs, mc_opts);
    for samples in [2_000usize, 12_000] {
        group.bench_with_input(
            BenchmarkId::new("montecarlo_n", samples),
            &samples,
            |b, &samples| {
                let mut scratch = ScoreScratch::new(n);
                let mut i = 0;
                b.iter(|| {
                    let q = queries[i % queries.len()];
                    i += 1;
                    std::hint::black_box(montecarlo_query(
                        graph,
                        Some(&mc_index),
                        q,
                        samples,
                        mc_opts,
                        &mut scratch,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
