//! Criterion micro-bench: offline index construction (Algorithm 1), serial
//! vs parallel, and across hub counts (the Fig. 11 trend: more hubs build
//! *faster*, because prime subgraphs shrink superlinearly).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastppv_bench::datasets;
use fastppv_core::hubs::{select_hubs, HubPolicy};
use fastppv_core::offline::build_flat_index;
use fastppv_core::Config;

fn bench_build(c: &mut Criterion) {
    let dataset = datasets::dblp(0.1, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let config = Config::default().with_epsilon(1e-6);
    let mut group = c.benchmark_group("offline_build");
    group.sample_size(10);
    for divisor in [50usize, 25, 12] {
        let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / divisor, 0);
        group.bench_with_input(BenchmarkId::new("serial", hubs.len()), &(), |b, _| {
            b.iter(|| std::hint::black_box(build_flat_index(graph, &hubs, &config, 1)));
        });
        group.bench_with_input(BenchmarkId::new("threads4", hubs.len()), &(), |b, _| {
            b.iter(|| std::hint::black_box(build_flat_index(graph, &hubs, &config, 4)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
