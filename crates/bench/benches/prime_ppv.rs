//! Criterion micro-bench: prime-subgraph extraction and prime-PPV solve —
//! the dominant cost of both the offline phase and non-hub queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fastppv_bench::datasets;
use fastppv_core::hubs::{select_hubs, HubPolicy};
use fastppv_core::prime::PrimeComputer;
use fastppv_core::Config;

fn bench_extract_and_solve(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let mut group = c.benchmark_group("prime_ppv");
    group.sample_size(30);
    for (label, divisor) in [("hubs_1pct", 100usize), ("hubs_4pct", 25)] {
        let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / divisor, 0);
        let config = Config::default().with_epsilon(1e-6);
        // A non-hub source with an average-sized neighborhood.
        let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
        group.bench_with_input(BenchmarkId::new("extract", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.extract(graph, &hubs, source, &config)));
        });
        group.bench_with_input(BenchmarkId::new("extract_and_solve", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 1e-4)));
        });
    }
    group.finish();
}

/// Solve in isolation (extraction hoisted out): exercises the reusable
/// solve scratch — `absorbed`/`in_queue`/`queue` now live inside the
/// computer, so repeated solves allocate nothing proportional to the
/// subgraph once warm.
fn bench_solve_reuse(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let config = Config::default().with_epsilon(1e-6);
    let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let mut group = c.benchmark_group("prime_ppv_solve");
    group.sample_size(30);
    group.bench_with_input(
        BenchmarkId::from_parameter("reused_scratch"),
        &(),
        |b, _| {
            let mut pc = PrimeComputer::new(n);
            let sub = pc.extract(graph, &hubs, source, &config);
            b.iter(|| std::hint::black_box(pc.solve(&sub, &config, 1e-4)));
        },
    );
    group.finish();
}

/// The kernel's two families side by side on the same sources: the
/// *stored* one (`prime_ppv`, fused, and `extract` + `solve`, materialized
/// — both solved to `solve_tolerance`) and the *query-time* one
/// (`prime_ppv_into` over the CSR, `prime_ppv_from` over dynamic-dispatch
/// adjacency — both stop at a residual of `config.delta`). The gap between
/// the families is what a cold non-hub query saves by not buying precision
/// its increment loop discards; the gaps inside them are what fusing and
/// the CSR fast path save.
fn bench_kernel_paths(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let config = Config::default().with_epsilon(1e-6);
    // Two non-hub sources: the first by id and the first past the middle
    // of the id range (ids are in creation order, so one sits among the
    // network's oldest papers and authors, the other among mid-period ones).
    let non_hub_from = |start: usize| {
        (start as u32..n as u32)
            .find(|&v| !hubs.is_hub(v))
            .expect("non-hub")
    };
    let mut group = c.benchmark_group("prime_ppv_kernel");
    group.sample_size(30);
    for (label, source) in [("first", non_hub_from(0)), ("mid", non_hub_from(n / 2))] {
        group.bench_with_input(BenchmarkId::new("stored_fused", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 0.0)));
        });
        group.bench_with_input(
            BenchmarkId::new("stored_extract_then_solve", label),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| {
                    let sub = pc.extract(graph, &hubs, source, &config);
                    std::hint::black_box(pc.solve(&sub, &config, 0.0));
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("query_time_into", label), &(), |b, _| {
            let mut pc = PrimeComputer::new(n);
            b.iter(|| {
                let (entries, size) = pc.prime_ppv_into(graph, &hubs, source, &config);
                std::hint::black_box((entries.len(), size));
            });
        });
        group.bench_with_input(
            BenchmarkId::new("query_time_dyn_adjacency", label),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| std::hint::black_box(pc.prime_ppv_from(graph, &hubs, source, &config)));
            },
        );
    }
    group.finish();
}

fn bench_epsilon(c: &mut Criterion) {
    let dataset = datasets::dblp(0.2, 42);
    let graph = &dataset.graph;
    let n = graph.num_nodes();
    let hubs = select_hubs(graph, HubPolicy::ExpectedUtility, n / 25, 0);
    let source = (0..n as u32).find(|&v| !hubs.is_hub(v)).expect("non-hub");
    let mut group = c.benchmark_group("prime_ppv_epsilon");
    group.sample_size(30);
    for eps in [1e-5f64, 1e-6, 1e-7, 1e-8] {
        let config = Config::default().with_epsilon(eps);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{eps:.0e}")),
            &(),
            |b, _| {
                let mut pc = PrimeComputer::new(n);
                b.iter(|| std::hint::black_box(pc.prime_ppv(graph, &hubs, source, &config, 1e-4)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extract_and_solve,
    bench_solve_reuse,
    bench_kernel_paths,
    bench_epsilon
);
criterion_main!(benches);
